#pragma once
/// \file ingest.hpp
/// Hardened ingestion of raw tester measurements. Stage 2 of the pipeline
/// consumes PCM e-tests and side-channel fingerprints measured on physical
/// hardware, where probe-contact dropouts, stuck ADC channels, and gross
/// outliers are routine. `MeasurementValidator` screens incoming DUTT
/// matrices for
///
///  - non-finite values (NaN / +/-Inf readings),
///  - physical-range violations (negative delays, absurd power levels),
///  - robust multivariate outliers (per-channel median/MAD z-scores plus a
///    device-level RMS cut across channels),
///
/// drives a bounded re-measure/retry policy against a `MeasurementSource`,
/// median-imputes isolated bad fingerprint channels, quarantines devices
/// that stay unusable, and reports everything it did as a
/// `QuarantineSummary` (JSON-ready for the `htd::obs` RunReport).

#include <cstdint>
#include <vector>

#include "core/errors.hpp"
#include "io/json.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"
#include "silicon/bench_measure.hpp"
#include "silicon/fab.hpp"

namespace htd::core {

/// Inclusive physical bounds of one measurement value.
struct PhysicalRange {
    double lo = -1e30;
    double hi = 1e30;

    [[nodiscard]] bool contains(double v) const noexcept { return v >= lo && v <= hi; }
};

/// Screening thresholds and retry budget of the ingestion path.
struct IngestPolicy {
    /// Physical range of a PCM entry. Delays [ns] and ring-oscillator
    /// frequencies [MHz] are strictly positive and far below 1e9.
    PhysicalRange pcm_range{1e-9, 1e9};

    /// Physical range of a fingerprint entry [dBm]. Transmit-power
    /// fingerprints of a lot sit a few dBm below 0 and the bench fault
    /// model's spikes move them by ±10 dB; a reading above +30 dBm (1 W)
    /// is no transmitter output, whatever the robust z screen makes of it.
    PhysicalRange fingerprint_range{-200.0, 30.0};

    /// Robust z cut: |x - median| / (1.4826 MAD) above this flags a cell.
    double robust_z_threshold = 8.0;

    /// Device-level cut on the RMS robust z across a row's channels.
    double device_rms_z_threshold = 6.0;

    /// Re-measure attempts per faulty device before imputing/dropping.
    std::size_t max_retries_per_device = 2;

    /// Total re-measure budget over the whole lot (bounds tester time).
    std::size_t max_total_retries = 120;

    /// Fingerprint channels of one device that may be median-imputed, as a
    /// fraction of nm, before the device is quarantined instead.
    double max_imputed_fraction = 0.34;

    /// Minimum devices the cleaned dataset must keep; below this the lot is
    /// rejected with DataQualityError.
    std::size_t min_devices = 8;

    /// Throws ConfigError on out-of-range thresholds.
    void validate() const;
};

/// Why a cell was flagged.
enum class CellFault {
    kNonFinite,   ///< NaN or +/-Inf
    kOutOfRange,  ///< outside the physical range
    kOutlier,     ///< robust z above the threshold
};

/// "non_finite" / "out_of_range" / "outlier".
[[nodiscard]] std::string cell_fault_name(CellFault fault);

/// One flagged cell.
struct CellIssue {
    std::size_t row = 0;
    std::size_t col = 0;
    CellFault fault = CellFault::kNonFinite;
    double value = 0.0;
};

/// Screening outcome for one matrix.
struct ScreenResult {
    std::vector<CellIssue> issues;           ///< every flagged cell
    std::vector<std::uint8_t> row_flagged;   ///< 1 = row has any flagged cell
    std::vector<std::uint8_t> row_rejected;  ///< 1 = device-level RMS outlier
    std::size_t nonfinite = 0;
    std::size_t out_of_range = 0;
    std::size_t outliers = 0;

    [[nodiscard]] bool clean() const noexcept { return issues.empty(); }
    [[nodiscard]] std::size_t flagged_rows() const noexcept;
};

/// What ingestion did to a lot. Must-use, like IngestResult: a dropped
/// summary hides which devices were quarantined.
struct [[nodiscard]] QuarantineSummary {
    std::size_t devices_total = 0;
    std::size_t devices_kept = 0;
    std::size_t devices_dropped = 0;
    std::size_t devices_retried = 0;
    std::size_t retries_used = 0;
    std::size_t channels_imputed = 0;
    std::size_t nonfinite_cells = 0;
    std::size_t range_violation_cells = 0;
    std::size_t outlier_cells = 0;

    /// JSON object for a RunReport "quarantine" section.
    [[nodiscard]] io::Json to_json() const;
};

/// Cleaned dataset plus the bookkeeping of how it was cleaned.
struct [[nodiscard]] IngestResult {
    silicon::DuttDataset dataset;           ///< quarantined-out, imputed
    std::vector<std::size_t> kept_indices;  ///< raw-lot rows kept, in order
    std::vector<std::size_t> dropped_indices;
    QuarantineSummary summary;
};

/// Screens, retries, imputes and quarantines raw measurements.
class MeasurementValidator {
public:
    MeasurementValidator() = default;

    /// Throws ConfigError on an invalid policy.
    explicit MeasurementValidator(IngestPolicy policy);

    /// Screen one matrix (rows = devices) against a physical range; the
    /// median/MAD statistics are computed per column over the cells that
    /// pass the finite + range checks.
    [[nodiscard]] ScreenResult screen(const linalg::Matrix& data,
                                      const PhysicalRange& range) const;

    /// Clean an already-measured dataset without a bench to retry against:
    /// impute what the policy allows, drop the rest. Throws
    /// DataQualityError when fewer than `min_devices` rows survive.
    [[nodiscard]] IngestResult sanitize(const silicon::DuttDataset& raw) const;

    /// Measure `lot` through `source`, re-measure faulty devices within the
    /// retry budget, then impute/drop what remains, in an `ingest.lot`
    /// span. Throws DataQualityError when fewer than `min_devices` devices
    /// survive.
    [[nodiscard]] IngestResult ingest(const silicon::FabricatedLot& lot,
                                      const silicon::MeasurementSource& source,
                                      rng::Rng& rng) const;

    [[nodiscard]] const IngestPolicy& policy() const noexcept { return policy_; }

private:
    /// Impute/drop pass shared by sanitize() and ingest().
    [[nodiscard]] IngestResult finalize(silicon::DuttDataset ds,
                                        QuarantineSummary summary) const;

    IngestPolicy policy_{};
};

}  // namespace htd::core
