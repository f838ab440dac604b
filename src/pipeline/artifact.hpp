#pragma once
/// \file artifact.hpp
/// The persisted calibration artifact behind the calibrate/score split:
/// exactly what `pipeline::BoundaryScorer` and explain read of a trained
/// `GoldenFreePipeline` — per-boundary SVM support vectors and coefficients,
/// their status, and the adaptive KDE tail estimators S2/S5 that explain
/// evaluates — serialized once at calibration time and reloaded to classify
/// production batches with zero retraining. Stage-1/2 intermediates (the
/// MARS regression bank, the KMM weights) are not persisted: no score reads
/// them.
///
/// Format (`htd.boundary.v1`): a JSON envelope
///     { "schema": "htd.boundary.v1", "version": 1, "sections": { ... } }
/// where every section carries its own CRC32 next to its payload, computed
/// over `name + '\0' + payload` so that a section swapped into another slot
/// is detected, not just a flipped bit. The provenance section records the
/// calibration seed and a FNV-1a fingerprint of the canonical pipeline
/// configuration; a loader refuses to score against a config it was not
/// calibrated for.
///
/// Robustness contract: `save` is atomic (write temp, fsync, rename) so a
/// crash mid-write leaves either the old artifact or none; `load` validates
/// before trusting and degrades per-boundary — a corrupt `boundary.Bk`
/// section marks Bk failed and scoring continues on the survivors, while
/// envelope-level damage (schema/version/config-hash/required-section) is a
/// hard, typed rejection. Never a silently wrong score.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/errors.hpp"
#include "io/json.hpp"
#include "ml/one_class_svm.hpp"
#include "pipeline/pipeline.hpp"
#include "stats/kde.hpp"

namespace htd::core {

/// The single definition point of the artifact schema identifier. Every
/// other occurrence of the literal in src/ or tools/ is a lint diagnostic
/// (htd_lint rule `artifact-schema-version`).
inline constexpr std::string_view kBoundaryArtifactSchema = "htd.boundary.v1";

/// Format version within the schema; bumped on any incompatible layout
/// change. Loaders reject a mismatch instead of guessing.
inline constexpr int kBoundaryArtifactVersion = 1;

/// What, specifically, is wrong with an artifact.
enum class ArtifactErrorCode {
    kIo,              ///< file unreadable / unwritable
    kParse,           ///< not valid JSON (truncation, bit flips in structure)
    kSchema,          ///< schema identifier is not htd.boundary.v1
    kVersionSkew,     ///< schema version differs from this build's
    kConfigHash,      ///< config fingerprint disagrees with provenance
    kSectionCrc,      ///< a section's CRC32 does not match its payload
    kMissingSection,  ///< a required section is absent
    kMalformed,       ///< structurally valid JSON with the wrong shape
};

/// Stable short name of a code ("io", "parse", "section_crc", ...).
[[nodiscard]] std::string artifact_error_code_name(ArtifactErrorCode code);

/// A persisted boundary artifact was rejected. Carries the offending
/// section name (empty when the problem is envelope-level) and, for parse
/// failures, the byte offset of the first malformed character.
class ArtifactError : public PipelineError {
public:
    /// Sentinel for "no byte offset applies".
    static constexpr std::size_t kNoOffset = static_cast<std::size_t>(-1);

    ArtifactError(ArtifactErrorCode code, const std::string& message,
                  std::string section = {}, std::size_t offset = kNoOffset)
        : PipelineError(PipelineErrorCode::kArtifact,
                        format(code, message, section, offset)),
          artifact_code_(code),
          section_(std::move(section)),
          offset_(offset) {}

    [[nodiscard]] ArtifactErrorCode artifact_code() const noexcept {
        return artifact_code_;
    }

    /// Name of the offending section ("boundary.B4", "kde", ...); empty for
    /// envelope-level problems.
    [[nodiscard]] const std::string& section() const noexcept { return section_; }

    /// Byte offset of the first malformed character (kNoOffset when not
    /// applicable).
    [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

private:
    static std::string format(ArtifactErrorCode code, const std::string& message,
                              const std::string& section, std::size_t offset);

    ArtifactErrorCode artifact_code_;
    std::string section_;
    std::size_t offset_;
};

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte string.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes) noexcept;

/// The canonical pipeline-config JSON the artifact stores and fingerprints:
/// every PipelineConfig field.
[[nodiscard]] io::Json canonical_config_json(const PipelineConfig& config);

/// FNV-1a 64-bit fingerprint (16 hex digits) of the canonical config JSON.
[[nodiscard]] std::string config_fingerprint(const PipelineConfig& config);

/// FNV-1a 64-bit fingerprint of an already-canonical config document.
[[nodiscard]] std::string config_fingerprint(const io::Json& canonical_config);

/// Who made the artifact, from what, and under which configuration.
struct ArtifactProvenance {
    std::uint64_t seed = 0;   ///< experiment seed of the calibration run
    std::string config_hash;  ///< config_fingerprint of the stored config
    std::string tool;         ///< creator tag, e.g. "htd_score"
};

/// Knobs for `BoundaryArtifact::load` / `from_json`.
struct ArtifactLoadOptions {
    /// Strict mode turns every tolerated degradation (corrupt auxiliary or
    /// per-boundary section) into a hard ArtifactError.
    bool strict = false;
};

/// What a tolerant load repaired around.
struct ArtifactLoadReport {
    std::vector<std::string> notes;            ///< degradations applied
    std::vector<std::string> failed_sections;  ///< sections rejected
};

/// In-memory form of one htd.boundary.v1 artifact.
class BoundaryArtifact {
public:
    BoundaryArtifact() = default;

    /// Capture a calibrated pipeline. Requires stage 1 to have run (throws
    /// StageOrderError otherwise via the pipeline accessors); boundaries
    /// that are not usable are stored with a null model and their recorded
    /// status.
    [[nodiscard]] static BoundaryArtifact from_pipeline(
        const GoldenFreePipeline& pipeline, std::uint64_t seed,
        std::string tool = "htd_score");

    /// Serialize to the htd.boundary.v1 envelope.
    [[nodiscard]] io::Json to_json() const;

    /// Decode and validate an envelope. Envelope-level damage (schema,
    /// version, required-section, config-hash) throws ArtifactError; damage
    /// confined to an auxiliary or per-boundary section is repaired around
    /// in tolerant mode (boundary marked kFailed, note recorded in
    /// `report`) or thrown in strict mode.
    [[nodiscard]] static BoundaryArtifact from_json(
        const io::Json& doc, const ArtifactLoadOptions& opts = {},
        ArtifactLoadReport* report = nullptr);

    /// Atomic save: write `path`.tmp, fsync, rename over `path`, fsync the
    /// directory. A crash at any point leaves the previous artifact (or no
    /// file), never a torn one. Throws ArtifactError(kIo) on IO failure.
    void save(const std::string& path) const;

    /// Read, parse and validate an artifact file. Throws ArtifactError:
    /// kIo when unreadable, kParse (with byte offset) when not JSON, and
    /// the from_json taxonomy beyond that.
    [[nodiscard]] static BoundaryArtifact load(
        const std::string& path, const ArtifactLoadOptions& opts = {},
        ArtifactLoadReport* report = nullptr);

    /// The canonical config document the calibration ran under.
    [[nodiscard]] const io::Json& config_json() const noexcept {
        return config_json_;
    }

    [[nodiscard]] const ArtifactProvenance& provenance() const noexcept {
        return provenance_;
    }

    [[nodiscard]] const BoundaryStatus& boundary_status(Boundary b) const noexcept {
        return status_[static_cast<std::size_t>(b)];
    }

    /// True when the boundary survived calibration *and* loading.
    [[nodiscard]] bool boundary_ready(Boundary b) const noexcept {
        return status_[static_cast<std::size_t>(b)].usable() &&
               svms_[static_cast<std::size_t>(b)].has_value();
    }

    /// The reconstructed 1-class SVM of a boundary (empty when the boundary
    /// is not usable or its section was rejected).
    [[nodiscard]] const std::optional<ml::OneClassSvm>& svm(Boundary b) const noexcept {
        return svms_[static_cast<std::size_t>(b)];
    }

    /// Fingerprint width the boundary was trained on (0 when unavailable).
    [[nodiscard]] std::size_t fingerprint_dim(Boundary b) const noexcept {
        return fingerprint_dims_[static_cast<std::size_t>(b)];
    }

    /// Tail-estimator states for S2/S5 (empty when the boundary failed or
    /// the section was rejected).
    [[nodiscard]] const std::optional<stats::AdaptiveKde::State>& kde_s2() const noexcept {
        return kde_s2_;
    }
    [[nodiscard]] const std::optional<stats::AdaptiveKde::State>& kde_s5() const noexcept {
        return kde_s5_;
    }

private:
    io::Json config_json_ = io::Json::object();
    ArtifactProvenance provenance_;
    std::array<BoundaryStatus, 5> status_{};
    std::array<std::optional<ml::OneClassSvm>, 5> svms_{};
    std::array<std::size_t, 5> fingerprint_dims_{};
    std::optional<stats::AdaptiveKde::State> kde_s2_;
    std::optional<stats::AdaptiveKde::State> kde_s5_;
};

}  // namespace htd::core
