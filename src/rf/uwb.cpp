#include "rf/uwb.hpp"

#include <cmath>
#include <stdexcept>

#include "core/stable_sum.hpp"

namespace htd::rf {

double mw_to_dbm(double mw) {
    if (mw <= 0.0) throw std::domain_error("mw_to_dbm: non-positive power");
    return 10.0 * std::log10(mw);
}

double dbm_to_mw(double dbm) noexcept { return std::pow(10.0, dbm / 10.0); }

// --- PowerAmplifier -----------------------------------------------------------

PowerAmplifier::PowerAmplifier(Options opts)
    : opts_(opts),
      driver_(circuit::MosType::kNmos,
              circuit::MosfetGeometry{opts.driver_width_um, 0.35}) {
    if (opts.vdd <= 0.0 || opts.load_ohm <= 0.0 || opts.nominal_freq_ghz <= 0.0 ||
        opts.nominal_tau_ns <= 0.0) {
        throw std::invalid_argument("PowerAmplifier: non-positive option");
    }
    const process::ProcessPoint nominal = process::nominal_350nm();
    nominal_gm_ = driver_.transconductance_ma_per_v(nominal, opts_.bias_v);
    if (nominal_gm_ <= 0.0) {
        throw std::invalid_argument("PowerAmplifier: driver off at the nominal bias");
    }
    nominal_cload_ =
        process::cox_ff_per_um2(nominal.tox_nm()) * nominal.cj_scale();
}

UwbPulseParams PowerAmplifier::pulse_params(const process::ProcessPoint& pp) const {
    UwbPulseParams pulse;

    // Output amplitude: a gm * R_L voltage swing referenced to the nominal
    // design point (A = 1 V at the nominal process).
    const double gm = driver_.transconductance_ma_per_v(pp, opts_.bias_v);
    pulse.amplitude_v = gm / nominal_gm_;

    // Tank frequency: f = 1/(2 pi sqrt(L C)); with a fixed inductor the
    // free-running frequency moves as 1/sqrt(C). The production-test trim
    // compensates most of that spread, leaving the configured residual
    // exponent of sensitivity to the capacitance ratio.
    const double cload = process::cox_ff_per_um2(pp.tox_nm()) * pp.cj_scale();
    pulse.center_freq_ghz =
        opts_.nominal_freq_ghz *
        std::pow(nominal_cload_ / cload, opts_.freq_tuning_exponent);

    // Envelope width: the shaping network's RC; track sheet resistance and
    // parasitic capacitance.
    pulse.tau_ns = opts_.nominal_tau_ns * (pp.rsheet() / 75.0) * pp.cj_scale();

    return pulse;
}

// --- UwbTransmitter -----------------------------------------------------------

UwbTransmitter::UwbTransmitter(PowerAmplifier pa, const trojan::TrojanEffect* trojan)
    : pa_(std::move(pa)), trojan_(trojan) {}

std::vector<trojan::PulseObservation> UwbTransmitter::transmit_block(
    const process::ProcessPoint& pp, const std::array<bool, 128>& ciphertext_bits,
    const std::array<bool, 128>& key_bits) const {
    const UwbPulseParams base = pa_.pulse_params(pp);

    std::vector<trojan::PulseObservation> out(128);
    for (std::size_t i = 0; i < 128; ++i) {
        trojan::PulseObservation& obs = out[i];
        if (!ciphertext_bits[i]) continue;  // OOK: '0' slots are silent
        obs.transmitted = true;
        obs.amplitude_v = base.amplitude_v;
        obs.frequency_ghz = base.center_freq_ghz;
        obs.tau_ns = base.tau_ns;
        if (trojan_ != nullptr) {
            const trojan::BitModulation mod = trojan_->modulate(i, key_bits);
            obs.amplitude_v *= mod.amplitude_scale;
            obs.frequency_ghz += mod.frequency_offset_ghz;
        }
    }
    return out;
}

// --- PowerMeter -----------------------------------------------------------------

PowerMeter::PowerMeter(Options opts) : opts_(opts) {
    if (opts.bandwidth_ghz <= 0.0 || opts.bit_period_ns <= 0.0) {
        throw std::invalid_argument("PowerMeter: non-positive option");
    }
    if (opts.noise_sigma_db < 0.0) {
        throw std::invalid_argument("PowerMeter: negative noise sigma");
    }
}

double PowerMeter::band_response(double freq_ghz) const noexcept {
    const double d = freq_ghz - opts_.center_freq_ghz;
    const double s = opts_.bandwidth_ghz;
    return std::exp(-0.5 * d * d / (s * s));
}

double PowerMeter::average_power_mw(
    std::span<const trojan::PulseObservation> block) const {
    if (block.empty()) throw std::invalid_argument("PowerMeter: empty block");
    // A Gaussian-envelope pulse A exp(-t^2/(2 tau^2)) cos(2 pi f t) into a
    // load R carries energy E = A^2 tau sqrt(pi)/2 / R (the cos^2 averages to
    // 1/2 and the envelope-squared integrates to tau sqrt(pi)). The meter
    // reports the band-weighted pulse energy averaged over the bit slot.
    constexpr double kLoadOhm = 50.0;
    constexpr double kSqrtPi = 1.7724538509055160273;
    // This is the Monte Carlo hot loop (one call per simulated block); the
    // compensated accumulator keeps the sum within ~1 ulp of exact, and the
    // fingerprints' bits depend on its order.
    core::StableAccumulator total_mw;
    for (const trojan::PulseObservation& obs : block) {
        if (!obs.transmitted) continue;
        const double a = obs.amplitude_v;
        // A^2 [V^2] * tau [ns] / R [ohm] = nJ * 1e... : A^2/R is watts, times
        // tau/T_bit gives slot-average watts; report milliwatts.
        const double avg_mw = a * a * kSqrtPi / 2.0 / kLoadOhm * obs.tau_ns /
                              opts_.bit_period_ns * 1e3 *
                              band_response(obs.frequency_ghz);
        total_mw.add(avg_mw);
    }
    return total_mw.value() / static_cast<double>(block.size());
}

double PowerMeter::average_power_dbm(std::span<const trojan::PulseObservation> block,
                                     rng::Rng& rng) const {
    const double mw = average_power_mw(block);
    double dbm = mw_to_dbm(std::max(mw, 1e-12));
    if (opts_.noise_sigma_db > 0.0) dbm += rng.normal(0.0, opts_.noise_sigma_db);
    return dbm;
}

}  // namespace htd::rf
