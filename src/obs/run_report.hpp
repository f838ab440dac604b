#pragma once
/// \file run_report.hpp
/// Structured, machine-readable record of one pipeline / bench execution.
/// A `RunReport` is a named JSON document that reporting code fills with
/// domain sections (config, datasets, per-boundary metrics, ...) and that
/// can capture the global observability state (spans + work counters) as
/// its "observability" section. Benches use `write_bench_report` to emit the
/// `BENCH_<name>.json` artifacts tracked by the perf trajectory.
///
/// A gated artifact also carries a top-level "gate" array of
/// `{metric, value, better, rel, abs}` records (`gate_record`). The
/// regression gate (tools/bench_compare) matches them by metric against the
/// blessed copy and fails one when the candidate moved in the bad direction
/// by more than max(rel * |baseline|, abs). The producer owns both the
/// metric names and the bands; the gate knows neither.

#include <string>

#include "io/json.hpp"
#include "obs/obs.hpp"

namespace htd::obs {

class RunReport {
public:
    /// `name` identifies the run (e.g. "quickstart", "bench_roc").
    explicit RunReport(std::string name);

    /// Set a top-level section; later sets of the same key overwrite.
    RunReport& set(const std::string& key, io::Json value);

    /// Snapshot `registry` (spans + work counters) into the "observability"
    /// section. Call after the instrumented work has finished.
    RunReport& capture_observability(const Registry& registry = Registry::global());

    /// The document so far (name + sections, in a deterministic key order).
    [[nodiscard]] const io::Json& json() const noexcept { return doc_; }

    /// Serialize (pretty-printed) and write; throws std::runtime_error on
    /// IO failure.
    void write(const std::string& path, int indent = 2) const;

private:
    io::Json doc_;
};

/// Direction of improvement of a gated metric.
enum class Better { kLower, kHigher };

/// One bench-gate record: `{metric, value, better: "lower"|"higher", rel,
/// abs}`. `rel` is a fraction of the blessed value, `abs` an absolute band
/// in the metric's unit; the larger of the two is the allowed worsening.
[[nodiscard]] io::Json gate_record(std::string metric, double value, Better better,
                                   double rel, double abs);

/// Emit "BENCH_<bench_name>.json" in the working directory: `payload`
/// under "results", `gate` (an array of gate_record()s) under "gate", plus
/// the registry's observability snapshot. Returns the path written.
[[nodiscard]] std::string write_bench_report(const std::string& bench_name, io::Json payload,
                                             io::Json gate,
                                             const Registry& registry = Registry::global());

}  // namespace htd::obs
