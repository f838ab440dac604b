#pragma once
/// \file fab.hpp
/// Virtual fabrication of the experiment's silicon: a lot of chips, each
/// hosting the Trojan-free design plus the two Trojan-infested versions on
/// the same die (exactly the paper's 40 chips x 3 versions = 120 devices).
/// The fab draws hierarchical process variation from the *silicon* process
/// model — the foundry operating point that has drifted away from the
/// trusted Spice model.

#include <cstddef>
#include <utility>
#include <vector>

#include "process/variation_model.hpp"
#include "rng/rng.hpp"
#include "trojan/trojan.hpp"

namespace htd::silicon {

/// One fabricated device instance: a design version on a specific chip.
struct Device {
    std::size_t chip_id = 0;
    std::size_t wafer_id = 0;
    double site_x = 0.0;  ///< chip position on the wafer (unit disk)
    double site_y = 0.0;
    trojan::DesignVariant variant = trojan::DesignVariant::kTrojanFree;
    process::ProcessPoint point;  ///< version-local process parameters

    /// Normalized distance of the chip site from the wafer center.
    [[nodiscard]] double site_radius() const noexcept;
};

/// A fabricated lot: devices grouped per chip, with the shared offsets kept
/// for diagnostics.
struct FabricatedLot {
    std::vector<Device> devices;        ///< chips * versions entries
    linalg::Vector lot_offset;          ///< shared lot-level parameter offset
    std::vector<linalg::Vector> wafer_offsets;
    std::size_t chips_per_wafer = 0;

    /// Number of distinct chips in the lot, derived from the device list.
    /// Not a divide-by-versions shortcut: a lot that was filtered (e.g. by
    /// measurement quarantine) no longer carries every version of every chip.
    [[nodiscard]] std::size_t chip_count() const;
};

/// The virtual foundry.
class Fab {
public:
    struct Options {
        std::size_t wafers = 2;               ///< wafers the lot is spread over
        /// Relative 1-sigma mismatch of the several design versions sharing
        /// one die (fraction of the die-level process sigma).
        double within_die_fraction = 0.15;

        /// Strength of the radial across-wafer systematic gradient, in
        /// process sigmas from wafer center to edge (0 disables). Real
        /// wafers show radial signatures from deposition/anneal uniformity;
        /// chips near the edge lean toward the slow corner.
        double radial_gradient_sigma = 0.3;
    };

    /// `silicon_process` is the foundry's actual operating point.
    explicit Fab(process::ProcessVariationModel silicon_process)
        : Fab(std::move(silicon_process), Options{}) {}
    Fab(process::ProcessVariationModel silicon_process, Options opts);

    /// Fabricate one lot of `n_chips`, each hosting the three design
    /// versions. Device order: chip 0 {TF, TI-amp, TI-freq}, chip 1 {...}.
    /// Throws std::invalid_argument when n_chips == 0.
    [[nodiscard]] FabricatedLot fabricate_lot(rng::Rng& rng, std::size_t n_chips) const;

    [[nodiscard]] const process::ProcessVariationModel& process_model() const noexcept {
        return process_;
    }

private:
    process::ProcessVariationModel process_;
    Options opts_;
};

}  // namespace htd::silicon
