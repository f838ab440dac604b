#pragma once
/// \file platform.hpp
/// Configuration of the wireless cryptographic IC experimentation platform:
/// the on-chip AES key, the plaintext blocks whose transmissions are
/// fingerprinted, the Trojan strengths, and the analog/measurement options.
/// One PlatformConfig describes both what is fabricated and how it is
/// measured, mirroring the paper's setup (nm = 6 transmit-power
/// fingerprints, np = 1 path-delay PCM).

#include <cstdint>
#include <vector>

#include "circuit/delay.hpp"
#include "crypto/aes.hpp"
#include "rf/uwb.hpp"

namespace htd::silicon {

/// Full platform description.
struct PlatformConfig {
    /// The AES-128 key stored on chip (and leaked by the Trojans).
    crypto::Block aes_key{};

    /// Plaintext blocks encrypted and transmitted for fingerprinting; the
    /// paper uses 6 randomly chosen blocks (nm = 6).
    std::vector<crypto::Block> plaintext_blocks;

    /// Trojan strengths: amplitude scale (1 + eps) and frequency offset.
    double trojan_amplitude_epsilon = 0.40;
    double trojan_frequency_delta_ghz = 0.60;

    /// Analog models.
    rf::PowerAmplifier::Options pa{};
    rf::PowerMeter::Options meter{};

    /// PCM structures: the on-die path-delay monitor (np = 1) and an
    /// optional kerf ring oscillator (np = 2 when enabled).
    circuit::PcmPath::Options pcm_path{};
    bool include_ring_oscillator = false;
    circuit::RingOscillatorPcm::Options ring_oscillator{};

    /// Relative 1-sigma jitter of a PCM measurement.
    double pcm_noise_fraction = 0.003;

    /// Device-level gain mismatch [dB, 1-sigma], common to every block: PA
    /// bias-current mismatch gives each die a gain offset that the nominal
    /// Spice netlist does not capture and the delay PCM cannot predict. This
    /// is the dominant part of the fingerprint variance left unexplained by
    /// the regression stage — it displaces a device *along* the trusted tube
    /// (all six fingerprints together).
    double gain_mismatch_db = 0.15;

    /// Per-block gain mismatch [dB, 1-sigma]: the small pattern-dependent
    /// nonlinearity spread that differs between stored blocks. This is the
    /// transverse thickness of the Trojan-free fingerprint cloud, and must
    /// stay below the Trojans' transverse signature for FP = 0.
    double fingerprint_mismatch_db = 0.02;

    /// Number of side-channel fingerprints nm: one transmit-power reading per
    /// plaintext block.
    [[nodiscard]] std::size_t fingerprint_dim() const noexcept {
        return plaintext_blocks.size();
    }

    /// Number of PCM measurements np.
    [[nodiscard]] std::size_t pcm_dim() const noexcept {
        return include_ring_oscillator ? 2 : 1;
    }

    /// The paper's default platform: a random key and 6 random plaintext
    /// blocks drawn from `seed`, 0.02 dB meter noise, default analog models.
    [[nodiscard]] static PlatformConfig paper_default(std::uint64_t seed = 0xd0c'ac14ULL);

    /// Precomputed ciphertext bit patterns for every plaintext block under
    /// the platform key (what the serialization buffer feeds the UWB).
    [[nodiscard]] std::vector<std::array<bool, 128>> ciphertext_bits() const;

    /// The key as a 128-bit pattern (the Trojans' leak payload).
    [[nodiscard]] std::array<bool, 128> key_bits() const noexcept {
        return crypto::block_to_bits(aes_key);
    }
};

}  // namespace htd::silicon
