#pragma once
/// \file errors.hpp
/// Typed error hierarchy of the detection pipeline. Every failure the
/// pipeline and the ingestion layer can signal carries a machine-readable
/// `PipelineErrorCode`, so callers can distinguish misuse (stage ordering,
/// dimension mismatches) from data problems (non-finite measurements, a
/// rejected lot) — and react differently: misuse is a bug, data problems
/// call for re-measurement. Statistical degradation (a collapsed KMM
/// calibration) is not an error: the pipeline falls back to a healthier
/// boundary and records it in the boundary status.

#include <stdexcept>
#include <string>

namespace htd::core {

/// Machine-readable failure category.
enum class PipelineErrorCode {
    kConfig,               ///< invalid configuration value
    kStageOrder,           ///< stages invoked out of order
    kDimensionMismatch,    ///< matrix shape disagrees with the trained model
    kDataQuality,          ///< non-finite / out-of-range / rejected measurements
    kBoundaryUnavailable,  ///< requested boundary not trained or failed
    kArtifact,             ///< persisted boundary artifact invalid or corrupt
};

/// Stable short name of a code ("config", "stage_order", ...).
[[nodiscard]] std::string pipeline_error_code_name(PipelineErrorCode code);

/// Base of every pipeline failure. Derives from std::runtime_error so
/// legacy catch sites keep working; prefer catching the subtypes below.
class PipelineError : public std::runtime_error {
public:
    PipelineError(PipelineErrorCode code, const std::string& message)
        : std::runtime_error(format_message(code, message)), code_(code) {}

    [[nodiscard]] PipelineErrorCode code() const noexcept { return code_; }

private:
    /// Out-of-line "[code] message" formatting: keeps the std::string
    /// concatenation out of every throw site (GCC 12 -O2 emits spurious
    /// -Wrestrict for inlined operator+ chains, PR 105329) and builds the
    /// message with appends instead of temporaries.
    static std::string format_message(PipelineErrorCode code,
                                      const std::string& message);

    PipelineErrorCode code_;
};

/// A configuration value is invalid (rejected at construction time).
class ConfigError : public PipelineError {
public:
    explicit ConfigError(const std::string& message)
        : PipelineError(PipelineErrorCode::kConfig, message) {}
};

/// A stage was invoked before its prerequisite stage completed.
class StageOrderError : public PipelineError {
public:
    explicit StageOrderError(const std::string& message)
        : PipelineError(PipelineErrorCode::kStageOrder, message) {}
};

/// An input matrix's shape disagrees with what the trained models expect.
class DimensionError : public PipelineError {
public:
    explicit DimensionError(const std::string& message)
        : PipelineError(PipelineErrorCode::kDimensionMismatch, message) {}
};

/// Measurements are unusable: non-finite values, physical-range violations,
/// or a lot rejected by the ingestion quarantine.
class DataQualityError : public PipelineError {
public:
    explicit DataQualityError(const std::string& message)
        : PipelineError(PipelineErrorCode::kDataQuality, message) {}
};

/// The requested boundary has not been trained, or its training failed.
class BoundaryUnavailableError : public PipelineError {
public:
    explicit BoundaryUnavailableError(const std::string& message)
        : PipelineError(PipelineErrorCode::kBoundaryUnavailable, message) {}
};

}  // namespace htd::core
