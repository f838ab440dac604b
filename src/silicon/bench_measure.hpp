#pragma once
/// \file bench_measure.hpp
/// The measurement side of the experiment:
///  - `MeasurementBench` plays the role of the tester measuring fabricated
///    devices: PCM e-tests (path delay, optional ring-oscillator frequency)
///    and the nm transmit-power fingerprints, both with instrument noise.
///  - `SpiceSimulator` plays the role of the trusted Spice-level Monte Carlo
///    of golden devices: identical circuit equations evaluated at process
///    points drawn from the *stale* simulation model, with no bench noise.
///  - `DuttDataset` bundles the measured populations the detection pipeline
///    consumes.

#include <vector>

#include "circuit/delay.hpp"
#include "linalg/matrix.hpp"
#include "ml/metrics.hpp"
#include "process/variation_model.hpp"
#include "rf/uwb.hpp"
#include "silicon/fab.hpp"
#include "silicon/platform.hpp"

namespace htd::silicon {

/// Measurements of a device population.
struct DuttDataset {
    linalg::Matrix fingerprints;                 ///< N x nm [dBm]
    linalg::Matrix pcms;                         ///< N x np
    std::vector<trojan::DesignVariant> variants; ///< per device

    [[nodiscard]] std::size_t size() const noexcept { return variants.size(); }

    /// Ground-truth labels for metric evaluation.
    [[nodiscard]] std::vector<ml::DeviceLabel> labels() const;

    /// Row indices of the Trojan-free devices.
    [[nodiscard]] std::vector<std::size_t> trojan_free_indices() const;

    /// Submatrix of fingerprints for the given row indices.
    [[nodiscard]] linalg::Matrix fingerprints_at(
        const std::vector<std::size_t>& rows) const;
};

/// Abstract source of device measurements. `MeasurementBench` is the clean
/// tester; `FaultyBench` (fault_injector.hpp) decorates any source with
/// injected measurement faults; `core::MeasurementValidator` (core/ingest.hpp)
/// drives its bounded re-measure policy through this interface.
class MeasurementSource {
public:
    virtual ~MeasurementSource() = default;

    /// PCM measurement vector (np entries) of a device.
    [[nodiscard]] virtual linalg::Vector measure_pcm(const Device& device,
                                                     rng::Rng& rng) const = 0;

    /// Side-channel fingerprint (nm entries) of a device.
    [[nodiscard]] virtual linalg::Vector measure_fingerprint(const Device& device,
                                                             rng::Rng& rng) const = 0;

    /// Measure a whole fabricated lot: the per-device calls in lot order
    /// (fingerprint first, then PCM, per device).
    [[nodiscard]] DuttDataset measure_lot(const FabricatedLot& lot, rng::Rng& rng) const;
};

/// The tester bench.
class MeasurementBench : public MeasurementSource {
public:
    /// Throws std::invalid_argument when the platform has no plaintext blocks.
    explicit MeasurementBench(PlatformConfig config);

    /// PCM measurement vector (np entries) of a device, with jitter.
    [[nodiscard]] linalg::Vector measure_pcm(const Device& device,
                                             rng::Rng& rng) const override;

    /// Side-channel fingerprint (nm entries, dBm) of a device: transmit the
    /// nm ciphertext blocks and record the average block power.
    [[nodiscard]] linalg::Vector measure_fingerprint(const Device& device,
                                                     rng::Rng& rng) const override;

    /// Raw per-bit observations of one block transmission by a device —
    /// what an attacker's antenna captures. `block_index` selects the
    /// plaintext block.
    [[nodiscard]] std::vector<trojan::PulseObservation> capture_transmission(
        const Device& device, std::size_t block_index) const;

    [[nodiscard]] const PlatformConfig& config() const noexcept { return config_; }

private:
    [[nodiscard]] const rf::UwbTransmitter& transmitter_for(
        trojan::DesignVariant v) const;

    PlatformConfig config_;
    std::vector<std::array<bool, 128>> cipher_bits_;
    std::array<bool, 128> key_bits_{};
    circuit::PcmPath pcm_path_;
    circuit::RingOscillatorPcm ring_osc_;
    rf::PowerMeter meter_;
    std::unique_ptr<trojan::TrojanEffect> amp_trojan_;
    std::unique_ptr<trojan::TrojanEffect> freq_trojan_;
    rf::UwbTransmitter tx_free_;
    rf::UwbTransmitter tx_amp_;
    rf::UwbTransmitter tx_freq_;
};

/// Monte Carlo "Spice" simulation of golden (Trojan-free) devices.
class SpiceSimulator {
public:
    /// `spice_model` is the trusted but stale process model. Throws
    /// std::invalid_argument when the platform has no plaintext blocks.
    SpiceSimulator(PlatformConfig config, process::ProcessVariationModel spice_model);

    struct GoldenData {
        linalg::Matrix pcms;          ///< n x np
        linalg::Matrix fingerprints;  ///< n x nm [dBm]
    };

    /// Simulate `n` golden devices under full Monte Carlo process variation.
    /// Simulation is noise-free: the model is deterministic given a process
    /// point, which is exactly what a Spice testbench would produce.
    [[nodiscard]] GoldenData simulate_golden(rng::Rng& rng, std::size_t n) const;

    /// Noise-free PCM vector at one process point.
    [[nodiscard]] linalg::Vector pcm_at(const process::ProcessPoint& pp) const;

    /// Noise-free fingerprint vector at one process point.
    [[nodiscard]] linalg::Vector fingerprint_at(const process::ProcessPoint& pp) const;

    [[nodiscard]] const process::ProcessVariationModel& model() const noexcept {
        return spice_model_;
    }
    [[nodiscard]] const PlatformConfig& config() const noexcept { return config_; }

private:
    PlatformConfig config_;
    process::ProcessVariationModel spice_model_;
    std::vector<std::array<bool, 128>> cipher_bits_;
    std::array<bool, 128> key_bits_{};
    circuit::PcmPath pcm_path_;
    circuit::RingOscillatorPcm ring_osc_;
    rf::PowerMeter meter_;
    rf::UwbTransmitter tx_free_;
};

}  // namespace htd::silicon
