#include "silicon/bench_measure.hpp"

#include <stdexcept>

namespace htd::silicon {

// --- DuttDataset -----------------------------------------------------------

std::vector<ml::DeviceLabel> DuttDataset::labels() const {
    std::vector<ml::DeviceLabel> out;
    out.reserve(variants.size());
    for (const trojan::DesignVariant v : variants) {
        out.push_back(v == trojan::DesignVariant::kTrojanFree
                          ? ml::DeviceLabel::kTrojanFree
                          : ml::DeviceLabel::kTrojanInfested);
    }
    return out;
}

std::vector<std::size_t> DuttDataset::trojan_free_indices() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        if (variants[i] == trojan::DesignVariant::kTrojanFree) out.push_back(i);
    }
    return out;
}

linalg::Matrix DuttDataset::fingerprints_at(const std::vector<std::size_t>& rows) const {
    linalg::Matrix out(rows.size(), fingerprints.cols());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        out.set_row(i, fingerprints.row(rows[i]));
    }
    return out;
}

// --- MeasurementSource -----------------------------------------------------------

DuttDataset MeasurementSource::measure_lot(const FabricatedLot& lot,
                                           rng::Rng& rng) const {
    DuttDataset ds;
    ds.variants.reserve(lot.devices.size());
    for (const Device& dev : lot.devices) {
        ds.fingerprints.append_row(measure_fingerprint(dev, rng));
        ds.pcms.append_row(measure_pcm(dev, rng));
        ds.variants.push_back(dev.variant);
    }
    return ds;
}

// --- MeasurementBench ---------------------------------------------------------

MeasurementBench::MeasurementBench(PlatformConfig config)
    : config_(std::move(config)),
      cipher_bits_(config_.ciphertext_bits()),
      key_bits_(config_.key_bits()),
      pcm_path_(config_.pcm_path),
      ring_osc_(config_.ring_oscillator),
      meter_(config_.meter),
      amp_trojan_(trojan::make_trojan(trojan::DesignVariant::kTrojanAmplitude,
                                      config_.trojan_amplitude_epsilon,
                                      config_.trojan_frequency_delta_ghz)),
      freq_trojan_(trojan::make_trojan(trojan::DesignVariant::kTrojanFrequency,
                                       config_.trojan_amplitude_epsilon,
                                       config_.trojan_frequency_delta_ghz)),
      tx_free_(rf::PowerAmplifier(config_.pa), nullptr),
      tx_amp_(rf::PowerAmplifier(config_.pa), amp_trojan_.get()),
      tx_freq_(rf::PowerAmplifier(config_.pa), freq_trojan_.get()) {
    if (config_.plaintext_blocks.empty()) {
        throw std::invalid_argument("MeasurementBench: no plaintext blocks configured");
    }
}

const rf::UwbTransmitter& MeasurementBench::transmitter_for(
    trojan::DesignVariant v) const {
    switch (v) {
        case trojan::DesignVariant::kTrojanFree: return tx_free_;
        case trojan::DesignVariant::kTrojanAmplitude: return tx_amp_;
        case trojan::DesignVariant::kTrojanFrequency: return tx_freq_;
    }
    throw std::invalid_argument("MeasurementBench: unknown design variant");
}

linalg::Vector MeasurementBench::measure_pcm(const Device& device, rng::Rng& rng) const {
    linalg::Vector pcm(config_.pcm_dim());
    const double delay = pcm_path_.delay_ns(device.point);
    pcm[0] = delay * (1.0 + rng.normal(0.0, config_.pcm_noise_fraction));
    if (config_.include_ring_oscillator) {
        const double freq = ring_osc_.frequency_mhz(device.point);
        pcm[1] = freq * (1.0 + rng.normal(0.0, config_.pcm_noise_fraction));
    }
    return pcm;
}

linalg::Vector MeasurementBench::measure_fingerprint(const Device& device,
                                                     rng::Rng& rng) const {
    const rf::UwbTransmitter& tx = transmitter_for(device.variant);
    // Mismatch terms are fixed per device in real silicon; since each device
    // is fingerprinted once, independent draws at measurement time are
    // statistically equivalent.
    const double common_offset =
        config_.gain_mismatch_db > 0.0 ? rng.normal(0.0, config_.gain_mismatch_db)
                                       : 0.0;
    linalg::Vector fp(cipher_bits_.size());
    for (std::size_t b = 0; b < cipher_bits_.size(); ++b) {
        const auto observations =
            tx.transmit_block(device.point, cipher_bits_[b], key_bits_);
        fp[b] = meter_.average_power_dbm(observations, rng) + common_offset;
        if (config_.fingerprint_mismatch_db > 0.0) {
            fp[b] += rng.normal(0.0, config_.fingerprint_mismatch_db);
        }
    }
    return fp;
}

std::vector<trojan::PulseObservation> MeasurementBench::capture_transmission(
    const Device& device, std::size_t block_index) const {
    if (block_index >= cipher_bits_.size()) {
        throw std::out_of_range("MeasurementBench::capture_transmission: block index");
    }
    return transmitter_for(device.variant)
        .transmit_block(device.point, cipher_bits_[block_index], key_bits_);
}

// --- SpiceSimulator ---------------------------------------------------------------

SpiceSimulator::SpiceSimulator(PlatformConfig config,
                               process::ProcessVariationModel spice_model)
    : config_(std::move(config)),
      spice_model_(std::move(spice_model)),
      cipher_bits_(config_.ciphertext_bits()),
      key_bits_(config_.key_bits()),
      pcm_path_(config_.pcm_path),
      ring_osc_(config_.ring_oscillator),
      meter_([&] {
          // Simulation is noise-free regardless of the bench noise setting.
          rf::PowerMeter::Options m = config_.meter;
          m.noise_sigma_db = 0.0;
          return m;
      }()),
      tx_free_(rf::PowerAmplifier(config_.pa), nullptr) {
    if (config_.plaintext_blocks.empty()) {
        throw std::invalid_argument("SpiceSimulator: no plaintext blocks configured");
    }
}

linalg::Vector SpiceSimulator::pcm_at(const process::ProcessPoint& pp) const {
    linalg::Vector pcm(config_.pcm_dim());
    pcm[0] = pcm_path_.delay_ns(pp);
    if (config_.include_ring_oscillator) pcm[1] = ring_osc_.frequency_mhz(pp);
    return pcm;
}

linalg::Vector SpiceSimulator::fingerprint_at(const process::ProcessPoint& pp) const {
    linalg::Vector fp(cipher_bits_.size());
    for (std::size_t b = 0; b < cipher_bits_.size(); ++b) {
        const auto observations =
            tx_free_.transmit_block(pp, cipher_bits_[b], key_bits_);
        fp[b] = rf::mw_to_dbm(std::max(meter_.average_power_mw(observations), 1e-12));
    }
    return fp;
}

SpiceSimulator::GoldenData SpiceSimulator::simulate_golden(rng::Rng& rng,
                                                           std::size_t n) const {
    if (n == 0) throw std::invalid_argument("SpiceSimulator::simulate_golden: n == 0");
    GoldenData data;
    data.pcms = linalg::Matrix(n, config_.pcm_dim());
    data.fingerprints = linalg::Matrix(n, config_.fingerprint_dim());
    for (std::size_t i = 0; i < n; ++i) {
        const process::ProcessPoint pp = spice_model_.sample_monte_carlo(rng);
        data.pcms.set_row(i, pcm_at(pp));
        data.fingerprints.set_row(i, fingerprint_at(pp));
    }
    return data;
}

}  // namespace htd::silicon
