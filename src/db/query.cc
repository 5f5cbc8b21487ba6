#include "db/query.h"

#include <algorithm>
#include <limits>

namespace fcbench::db {

bool ScanPredicate::Matches(double v) const {
  switch (op) {
    case CompareOp::kEq:
      return v == value;
    case CompareOp::kNe:
      return v != value;
    case CompareOp::kLt:
      return v < value;
    case CompareOp::kLe:
      return v <= value;
    case CompareOp::kGt:
      return v > value;
    case CompareOp::kGe:
      return v >= value;
    case CompareOp::kBetween:
      return v >= value && v <= upper;
  }
  return false;
}

namespace {

/// Row ids of `col` for which `match` holds: every id is written into a
/// selection sized once to the column, the cursor advances by the
/// predicate's result, and the tail is trimmed at the end — no branch on
/// the data and no push_back per row.
template <typename Match>
Selection SelectWhere(const std::vector<double>& col, Match match) {
  Selection sel(col.size());
  size_t n = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += match(col[i]) ? 1 : 0;
  }
  sel.resize(n);
  return sel;
}

}  // namespace

Result<Selection> Filter(const DataFrame& df, const ScanPredicate& pred) {
  if (pred.column >= df.num_columns()) {
    return Status::InvalidArgument("query: column index out of range");
  }
  const std::vector<double>& col = df.column(pred.column);
  // The operator is chosen once; each loop repeats Matches' comparison
  // exactly, so NaN and +-0.0 behave as Matches says.
  const double lo = pred.value;
  const double hi = pred.upper;
  switch (pred.op) {
    case CompareOp::kEq:
      return SelectWhere(col, [lo](double v) { return v == lo; });
    case CompareOp::kNe:
      return SelectWhere(col, [lo](double v) { return v != lo; });
    case CompareOp::kLt:
      return SelectWhere(col, [lo](double v) { return v < lo; });
    case CompareOp::kLe:
      return SelectWhere(col, [lo](double v) { return v <= lo; });
    case CompareOp::kGt:
      return SelectWhere(col, [lo](double v) { return v > lo; });
    case CompareOp::kGe:
      return SelectWhere(col, [lo](double v) { return v >= lo; });
    case CompareOp::kBetween:
      return SelectWhere(col,
                         [lo, hi](double v) { return (v >= lo) & (v <= hi); });
  }
  return Selection();
}

Result<Selection> FilterAll(const DataFrame& df,
                            std::span<const ScanPredicate> preds) {
  if (preds.empty()) {
    Selection all(df.num_rows());
    for (size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<uint32_t>(i);
    }
    return all;
  }
  FCB_ASSIGN_OR_RETURN(Selection sel, Filter(df, preds[0]));
  for (size_t p = 1; p < preds.size() && !sel.empty(); ++p) {
    const ScanPredicate& pred = preds[p];
    if (pred.column >= df.num_columns()) {
      return Status::InvalidArgument("query: column index out of range");
    }
    const std::vector<double>& col = df.column(pred.column);
    Selection refined;
    refined.reserve(sel.size());
    for (uint32_t row : sel) {
      if (pred.Matches(col[row])) refined.push_back(row);
    }
    sel = std::move(refined);
  }
  return sel;
}

Result<double> Aggregate(const DataFrame& df, size_t column, AggregateOp op,
                         const Selection* selection) {
  if (column >= df.num_columns()) {
    return Status::InvalidArgument("query: column index out of range");
  }
  const std::vector<double>& col = df.column(column);
  if (selection != nullptr && !selection->empty() &&
      selection->back() >= col.size()) {
    return Status::OutOfRange("query: selection row beyond table");
  }

  auto fold = [&](auto&& per_value) {
    if (selection == nullptr) {
      for (double v : col) per_value(v);
    } else {
      for (uint32_t row : *selection) per_value(col[row]);
    }
  };

  const size_t n = selection == nullptr ? col.size() : selection->size();
  switch (op) {
    case AggregateOp::kCount:
      return static_cast<double>(n);
    case AggregateOp::kSum: {
      double sum = 0;
      fold([&](double v) { sum += v; });
      return sum;
    }
    case AggregateOp::kMin: {
      double mn = std::numeric_limits<double>::infinity();
      fold([&](double v) { mn = std::min(mn, v); });
      return mn;
    }
    case AggregateOp::kMax: {
      double mx = -std::numeric_limits<double>::infinity();
      fold([&](double v) { mx = std::max(mx, v); });
      return mx;
    }
    case AggregateOp::kMean: {
      if (n == 0) return 0.0;
      double sum = 0;
      fold([&](double v) { sum += v; });
      return sum / static_cast<double>(n);
    }
  }
  return Status::InvalidArgument("query: unknown aggregate");
}

Result<std::vector<double>> Gather(const DataFrame& df, size_t column,
                                   const Selection& selection) {
  if (column >= df.num_columns()) {
    return Status::InvalidArgument("query: column index out of range");
  }
  const std::vector<double>& col = df.column(column);
  if (!selection.empty() && selection.back() >= col.size()) {
    return Status::OutOfRange("query: selection row beyond table");
  }
  std::vector<double> out;
  out.reserve(selection.size());
  for (uint32_t row : selection) out.push_back(col[row]);
  return out;
}

uint64_t RunHistogramScanWorkload(const DataFrame& df, size_t column,
                                  int bins) {
  std::vector<double> edges = df.HistogramEdges(column, bins);
  uint64_t total = 0;
  for (double v : edges) {
    total += df.CountLessEqual(column, v);
  }
  return total;
}

}  // namespace fcbench::db
