#include "pipeline/ingest.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/journal.hpp"
#include "obs/span.hpp"
#include "stats/descriptive.hpp"

namespace htd::core {

namespace {

/// MAD-based robust sigma with a floor so an (almost) constant column does
/// not flag float-noise deviations as outliers.
double robust_sigma(double mad, double median) {
    return std::max(1.4826 * mad, 1e-12 + 1e-9 * std::abs(median));
}

}  // namespace

void IngestPolicy::validate() const {
    if (!(pcm_range.lo <= pcm_range.hi) ||
        !(fingerprint_range.lo <= fingerprint_range.hi)) {
        throw ConfigError("IngestPolicy: physical range lo must be <= hi");
    }
    if (!(robust_z_threshold > 0.0) || !(device_rms_z_threshold > 0.0)) {
        throw ConfigError("IngestPolicy: outlier thresholds must be positive");
    }
    if (!(max_imputed_fraction >= 0.0 && max_imputed_fraction <= 1.0)) {
        throw ConfigError("IngestPolicy: max_imputed_fraction must be in [0, 1]");
    }
    if (min_devices == 0) {
        throw ConfigError("IngestPolicy: min_devices must be >= 1");
    }
}

std::string cell_fault_name(CellFault fault) {
    switch (fault) {
        case CellFault::kNonFinite: return "non_finite";
        case CellFault::kOutOfRange: return "out_of_range";
        case CellFault::kOutlier: return "outlier";
    }
    return "unknown";
}

std::size_t ScreenResult::flagged_rows() const noexcept {
    std::size_t n = 0;
    for (std::size_t r = 0; r < row_flagged.size(); ++r) {
        n += (row_flagged[r] != 0 || row_rejected[r] != 0) ? 1 : 0;
    }
    return n;
}

io::Json QuarantineSummary::to_json() const {
    io::Json out = io::Json::object();
    out.set("devices_total", devices_total);
    out.set("devices_kept", devices_kept);
    out.set("devices_dropped", devices_dropped);
    out.set("devices_retried", devices_retried);
    out.set("retries_used", retries_used);
    out.set("channels_imputed", channels_imputed);
    out.set("nonfinite_cells", nonfinite_cells);
    out.set("range_violation_cells", range_violation_cells);
    out.set("outlier_cells", outlier_cells);
    return out;
}

MeasurementValidator::MeasurementValidator(IngestPolicy policy) : policy_(policy) {
    policy_.validate();
}

ScreenResult MeasurementValidator::screen(const linalg::Matrix& data,
                                          const PhysicalRange& range) const {
    ScreenResult res;
    res.row_flagged.assign(data.rows(), 0);
    res.row_rejected.assign(data.rows(), 0);
    if (data.rows() == 0 || data.cols() == 0) return res;

    const std::size_t rows = data.rows();
    const std::size_t cols = data.cols();

    // Per-column median / MAD over the cells that pass the hard checks.
    std::vector<double> med(cols, 0.0);
    std::vector<double> sigma(cols, -1.0);  // <= 0 disables the z cut
    std::vector<double> buf;
    buf.reserve(rows);
    for (std::size_t c = 0; c < cols; ++c) {
        buf.clear();
        for (std::size_t r = 0; r < rows; ++r) {
            const double v = data(r, c);
            if (std::isfinite(v) && range.contains(v)) buf.push_back(v);
        }
        if (buf.empty()) continue;
        med[c] = stats::median(buf);
        for (double& x : buf) x = std::abs(x - med[c]);
        sigma[c] = robust_sigma(stats::median(buf), med[c]);
    }

    for (std::size_t r = 0; r < rows; ++r) {
        const auto flag = [&](std::size_t c, CellFault fault, double value) {
            res.issues.push_back({r, c, fault, value});
            res.row_flagged[r] = 1;
            switch (fault) {
                case CellFault::kNonFinite: ++res.nonfinite; break;
                case CellFault::kOutOfRange: ++res.out_of_range; break;
                case CellFault::kOutlier: ++res.outliers; break;
            }
        };
        double z_sq_sum = 0.0;
        std::size_t z_count = 0;
        for (std::size_t c = 0; c < cols; ++c) {
            const double v = data(r, c);
            if (!std::isfinite(v)) {
                flag(c, CellFault::kNonFinite, v);
                continue;
            }
            if (!range.contains(v)) {
                flag(c, CellFault::kOutOfRange, v);
                continue;
            }
            if (sigma[c] <= 0.0) continue;
            const double z = std::abs(v - med[c]) / sigma[c];
            z_sq_sum += z * z;
            ++z_count;
            if (z > policy_.robust_z_threshold) flag(c, CellFault::kOutlier, v);
        }
        if (z_count > 0 &&
            std::sqrt(z_sq_sum / static_cast<double>(z_count)) >
                policy_.device_rms_z_threshold) {
            res.row_rejected[r] = 1;
        }
    }
    return res;
}

IngestResult MeasurementValidator::finalize(silicon::DuttDataset ds,
                                            QuarantineSummary summary) const {
    const std::size_t n = ds.size();
    if (n == 0 || ds.pcms.rows() != n || ds.fingerprints.rows() != n) {
        throw DataQualityError("ingest: dataset is empty or inconsistently sized");
    }
    const ScreenResult ps = screen(ds.pcms, policy_.pcm_range);
    const ScreenResult fs = screen(ds.fingerprints, policy_.fingerprint_range);
    summary.devices_total = n;
    summary.nonfinite_cells = ps.nonfinite + fs.nonfinite;
    summary.range_violation_cells = ps.out_of_range + fs.out_of_range;
    summary.outlier_cells = ps.outliers + fs.outliers;

    // Healthy-cell column medians of the fingerprints, for imputation. A
    // column with no healthy cell at all cannot be imputed (sigma < 0 marks
    // it via the screen's disabled z cut; recompute explicitly here).
    const std::size_t nm = ds.fingerprints.cols();
    std::vector<double> fp_median(nm, 0.0);
    std::vector<bool> fp_median_valid(nm, false);
    {
        std::vector<double> buf;
        for (std::size_t c = 0; c < nm; ++c) {
            buf.clear();
            for (std::size_t r = 0; r < n; ++r) {
                const double v = ds.fingerprints(r, c);
                if (std::isfinite(v) && policy_.fingerprint_range.contains(v)) {
                    buf.push_back(v);
                }
            }
            if (!buf.empty()) {
                fp_median[c] = stats::median(buf);
                fp_median_valid[c] = true;
            }
        }
    }

    std::vector<std::vector<std::size_t>> fp_bad_cols(n);
    for (const CellIssue& issue : fs.issues) {
        fp_bad_cols[issue.row].push_back(issue.col);
    }
    const auto impute_cap = static_cast<std::size_t>(
        policy_.max_imputed_fraction * static_cast<double>(nm));

    std::vector<std::size_t> kept;
    std::vector<std::size_t> dropped;
    for (std::size_t r = 0; r < n; ++r) {
        // np is 1-2 channels: a PCM that is still bad after retries cannot
        // be meaningfully imputed, so the device is quarantined.
        const bool pcm_bad = ps.row_flagged[r] != 0 || ps.row_rejected[r] != 0;
        if (pcm_bad || fs.row_rejected[r] != 0) {
            dropped.push_back(r);
            continue;
        }
        const std::vector<std::size_t>& bad = fp_bad_cols[r];
        if (bad.empty()) {
            kept.push_back(r);
            continue;
        }
        const bool imputable =
            bad.size() <= impute_cap &&
            std::all_of(bad.begin(), bad.end(),
                        [&](std::size_t c) { return fp_median_valid[c]; });
        if (!imputable) {
            dropped.push_back(r);
            continue;
        }
        for (const std::size_t c : bad) {
            ds.fingerprints(r, c) = fp_median[c];
            ++summary.channels_imputed;
        }
        kept.push_back(r);
    }

    summary.devices_kept = kept.size();
    summary.devices_dropped = dropped.size();
    if (kept.size() < policy_.min_devices) {
        throw DataQualityError(
            "ingest: only " + std::to_string(kept.size()) + " of " +
            std::to_string(n) + " devices survived quarantine (floor " +
            std::to_string(policy_.min_devices) + ")");
    }

    IngestResult result;
    result.dataset.fingerprints = linalg::Matrix(kept.size(), nm);
    result.dataset.pcms = linalg::Matrix(kept.size(), ds.pcms.cols());
    result.dataset.variants.reserve(kept.size());
    for (std::size_t k = 0; k < kept.size(); ++k) {
        result.dataset.fingerprints.set_row(k, ds.fingerprints.row(kept[k]));
        result.dataset.pcms.set_row(k, ds.pcms.row(kept[k]));
        result.dataset.variants.push_back(ds.variants[kept[k]]);
    }
    result.kept_indices = std::move(kept);
    result.dropped_indices = std::move(dropped);
    result.summary = summary;

    // Every quarantined device is a per-chip decision the journal records:
    // a dropped chip never reaches a boundary, so without this event its
    // forensic trail would simply end.
    obs::EventJournal& journal = obs::EventJournal::global();
    if (journal.enabled()) {
        for (const std::size_t dropped_index : result.dropped_indices) {
            obs::Event ev(obs::EventKind::kQuarantine);
            ev.chip = std::to_string(dropped_index);
            ev.detail =
                "device dropped by measurement quarantine (unscreenable or "
                "non-imputable channels)";
            ev.value("devices_total",
                     static_cast<double>(result.summary.devices_total))
                .value("devices_dropped",
                       static_cast<double>(result.summary.devices_dropped));
            journal.append(std::move(ev));
        }
    }
    return result;
}

IngestResult MeasurementValidator::sanitize(const silicon::DuttDataset& raw) const {
    return finalize(raw, QuarantineSummary{});
}

IngestResult MeasurementValidator::ingest(const silicon::FabricatedLot& lot,
                                          const silicon::MeasurementSource& source,
                                          rng::Rng& rng) const {
    obs::ScopedSpan span("ingest.lot");
    span.attr("devices", static_cast<double>(lot.devices.size()));

    silicon::DuttDataset ds = source.measure_lot(lot, rng);
    if (ds.size() != lot.devices.size()) {
        throw DataQualityError("ingest: source measured " +
                               std::to_string(ds.size()) + " devices, lot has " +
                               std::to_string(lot.devices.size()));
    }

    QuarantineSummary summary;
    std::vector<std::size_t> retries(ds.size(), 0);
    for (std::size_t pass = 0; pass <= policy_.max_retries_per_device; ++pass) {
        const ScreenResult ps = screen(ds.pcms, policy_.pcm_range);
        const ScreenResult fs = screen(ds.fingerprints, policy_.fingerprint_range);
        bool remeasured = false;
        for (std::size_t i = 0; i < ds.size(); ++i) {
            const bool bad = ps.row_flagged[i] != 0 || ps.row_rejected[i] != 0 ||
                             fs.row_flagged[i] != 0 || fs.row_rejected[i] != 0;
            if (!bad || retries[i] >= policy_.max_retries_per_device) continue;
            if (summary.retries_used >= policy_.max_total_retries) break;
            ds.fingerprints.set_row(
                i, source.measure_fingerprint(lot.devices[i], rng));
            ds.pcms.set_row(i, source.measure_pcm(lot.devices[i], rng));
            if (retries[i] == 0) ++summary.devices_retried;
            ++retries[i];
            ++summary.retries_used;
            remeasured = true;
        }
        if (!remeasured) break;
    }

    IngestResult result = finalize(std::move(ds), summary);

    span.attr("kept", static_cast<double>(result.summary.devices_kept));
    span.attr("dropped", static_cast<double>(result.summary.devices_dropped));
    span.attr("retries", static_cast<double>(result.summary.retries_used));
    return result;
}

}  // namespace htd::core
