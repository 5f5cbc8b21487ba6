#include "select/auto_compressor.h"

#include "util/timer.h"

namespace fcbench::select {

std::string_view AutoMethodName(Objective objective) {
  switch (objective) {
    case Objective::kStorageReduction:
      return "auto-ratio";
    case Objective::kSpeed:
      return "auto-speed";
    case Objective::kBalanced:
      return "auto";
  }
  return "auto";
}

bool ParseAutoMethod(std::string_view method, Objective* objective) {
  Objective parsed;
  if (method == "auto") {
    parsed = Objective::kBalanced;
  } else if (method == "auto-speed") {
    parsed = Objective::kSpeed;
  } else if (method == "auto-ratio") {
    parsed = Objective::kStorageReduction;
  } else {
    return false;
  }
  if (objective != nullptr) *objective = parsed;
  return true;
}

std::unique_ptr<Compressor> AutoCompressor::Make(
    Objective objective, const CompressorConfig& config) {
  return std::make_unique<AutoCompressor>(objective, config);
}

namespace {

CompressorTraits AutoTraits(Objective objective) {
  CompressorTraits traits;
  traits.name = std::string(AutoMethodName(objective));
  traits.year = 2024;
  traits.domain = "adaptive";
  traits.arch = Arch::kCpu;
  traits.predictor = PredictorClass::kPrediction;  // predicts the winner
  traits.parallel = true;
  traits.supports_f32 = true;
  traits.supports_f64 = true;
  return traits;
}

}  // namespace

AutoCompressor::AutoCompressor(Objective objective,
                               const CompressorConfig& config)
    : ChunkedCompressor(AutoTraits(objective), config),
      selector_([&] {
        Selector::Config sc;
        sc.objective = objective;
        return sc;
      }()),
      trace_(config.selection_trace) {}

std::string AutoCompressor::ChooseMethod(size_t chunk, ByteSpan raw,
                                         const DataDesc& chunk_desc) {
  Timer timer;
  Decision d = selector_.Choose(raw, chunk_desc);
  if (trace_ != nullptr) {
    SelectionTrace::Entry e;
    e.select_seconds = timer.ElapsedSeconds();
    e.chunk_index = chunk;
    e.raw_bytes = raw.size();
    e.decision = d;
    trace_->entries.push_back(std::move(e));
  }
  return std::move(d.method);
}

}  // namespace fcbench::select
