#pragma once
/// \file report.hpp
/// Machine-readable experiment report: serializes an ExperimentResult (and
/// the configuration that produced it) to JSON for archiving, regression
/// tracking or external plotting. Used by the audit example.

#include <string>

#include "pipeline/experiment.hpp"
#include "pipeline/ingest.hpp"
#include "io/json.hpp"
#include "obs/run_report.hpp"

namespace htd::core {

/// Build the JSON document for one experiment run. Includes the per-boundary
/// Table-1 metrics, the golden-chip baseline, diagnostics read from the
/// fitted pipeline (so `result` must come from run_experiment), the key
/// configuration knobs, and (optionally) the measured per-device data.
[[nodiscard]] io::Json experiment_report(const ExperimentConfig& config,
                                         const ExperimentResult& result,
                                         bool include_measurements = false);

/// Convenience: build and write the report; throws std::runtime_error on IO
/// failure.
void write_experiment_report(const std::string& path, const ExperimentConfig& config,
                             const ExperimentResult& result,
                             bool include_measurements = false);

/// Structured record of one pipeline execution for the obs subsystem: the
/// pipeline configuration, every trained boundary (dataset name/size,
/// support-vector count, effective RBF gamma, SMO iterations), calibration
/// diagnostics (kernel-mean-shift iterations, KMM effective sample size),
/// and — when `dutts` is non-null — per-boundary detection metrics on that
/// population. Every boundary row carries its health, a "degradation"
/// section records per-boundary status plus the KMM fallback, and — when
/// `quarantine` is non-null — the MeasurementValidator's QuarantineSummary
/// is embedded as the "quarantine" section. Finishes by capturing the
/// global registry's spans + metrics as the report's "observability"
/// section, so call it after the stages of interest have run.
[[nodiscard]] obs::RunReport pipeline_run_report(
    const GoldenFreePipeline& pipeline, const std::string& run_name,
    const silicon::DuttDataset* dutts = nullptr,
    const QuarantineSummary* quarantine = nullptr);

}  // namespace htd::core
