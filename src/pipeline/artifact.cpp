#include "pipeline/artifact.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/journal.hpp"

namespace htd::core {

namespace {

std::size_t index_of(Boundary b) { return static_cast<std::size_t>(b); }

// --- small JSON (de)serialization helpers ----------------------------------
//
// Decoders throw std::invalid_argument with a local message; the section
// dispatcher wraps them into ArtifactError with the section name attached.

io::Json json_from_vector(const linalg::Vector& v) { return io::Json::from(v); }

io::Json json_from_matrix(const linalg::Matrix& m) { return io::Json::from(m); }

double expect_number(const io::Json& j, const char* what) {
    if (!j.is_number()) {
        throw std::invalid_argument(std::string(what) + ": expected a number");
    }
    return j.number();
}

bool expect_bool(const io::Json& j, const char* what) {
    if (!j.is_bool()) {
        throw std::invalid_argument(std::string(what) + ": expected a boolean");
    }
    return j.boolean();
}

const std::string& expect_string(const io::Json& j, const char* what) {
    if (!j.is_string()) {
        throw std::invalid_argument(std::string(what) + ": expected a string");
    }
    return j.str();
}

const io::Json& expect_member(const io::Json& j, const std::string& key,
                              const char* what) {
    if (!j.is_object() || !j.contains(key)) {
        throw std::invalid_argument(std::string(what) + ": missing member '" +
                                    key + "'");
    }
    return j.at(key);
}

std::size_t expect_size(const io::Json& j, const char* what) {
    const double v = expect_number(j, what);
    if (!(v >= 0.0) || v != std::floor(v)) {
        throw std::invalid_argument(std::string(what) +
                                    ": expected a non-negative integer");
    }
    return static_cast<std::size_t>(v);
}

linalg::Vector vector_from_json(const io::Json& j, const char* what) {
    if (!j.is_array()) {
        throw std::invalid_argument(std::string(what) + ": expected an array");
    }
    linalg::Vector v(j.size());
    for (std::size_t i = 0; i < j.size(); ++i) {
        v[i] = expect_number(j.at(i), what);
    }
    return v;
}

linalg::Matrix matrix_from_json(const io::Json& j, const char* what) {
    if (!j.is_array()) {
        throw std::invalid_argument(std::string(what) +
                                    ": expected an array of rows");
    }
    const std::size_t rows = j.size();
    if (rows == 0) return linalg::Matrix{};
    const io::Json& first = j.at(std::size_t{0});
    if (!first.is_array()) {
        throw std::invalid_argument(std::string(what) +
                                    ": expected an array of rows");
    }
    const std::size_t cols = first.size();
    linalg::Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        const io::Json& row = j.at(r);
        if (!row.is_array() || row.size() != cols) {
            throw std::invalid_argument(std::string(what) + ": ragged row " +
                                        std::to_string(r));
        }
        for (std::size_t c = 0; c < cols; ++c) {
            m(r, c) = expect_number(row.at(c), what);
        }
    }
    return m;
}

std::string hex_u64(std::uint64_t v) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

std::uint64_t parse_hex_u64(const std::string& s, const char* what) {
    if (s.empty() || s.size() > 16) {
        throw std::invalid_argument(std::string(what) +
                                    ": expected up to 16 hex digits");
    }
    std::uint64_t v = 0;
    for (const char c : s) {
        v <<= 4;
        if (c >= '0' && c <= '9') {
            v |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            throw std::invalid_argument(std::string(what) +
                                        ": invalid hex digit");
        }
    }
    return v;
}

std::string kernel_name(stats::KernelType k) {
    switch (k) {
        case stats::KernelType::kEpanechnikov: return "epanechnikov";
        case stats::KernelType::kGaussian: return "gaussian";
    }
    throw std::invalid_argument("kernel_name: unknown kernel type");
}

stats::KernelType kernel_from_name(const std::string& name) {
    if (name == "epanechnikov") return stats::KernelType::kEpanechnikov;
    if (name == "gaussian") return stats::KernelType::kGaussian;
    throw std::invalid_argument("unknown kernel type '" + name + "'");
}

BoundaryHealth health_from_name(const std::string& name) {
    if (name == "untrained") return BoundaryHealth::kUntrained;
    if (name == "healthy") return BoundaryHealth::kHealthy;
    if (name == "degraded") return BoundaryHealth::kDegraded;
    if (name == "failed") return BoundaryHealth::kFailed;
    throw std::invalid_argument("unknown boundary health '" + name + "'");
}

// --- model-state codecs -----------------------------------------------------

io::Json svm_opts_to_json(const ml::OneClassSvm::Options& o) {
    io::Json opts = io::Json::object();
    opts.set("nu", o.nu);
    opts.set("gamma", o.gamma);
    opts.set("gamma_scale", o.gamma_scale);
    opts.set("tolerance", o.tolerance);
    opts.set("max_iterations", o.max_iterations);
    opts.set("max_training_samples", o.max_training_samples);
    opts.set("subsample_seed", hex_u64(o.subsample_seed));
    opts.set("whiten", o.whiten);
    opts.set("whiten_floor", o.whiten_floor);
    return opts;
}

ml::OneClassSvm::Options svm_opts_from_json(const io::Json& opts) {
    ml::OneClassSvm::Options o;
    o.nu = expect_number(expect_member(opts, "nu", "svm.opts"), "svm.opts.nu");
    o.gamma =
        expect_number(expect_member(opts, "gamma", "svm.opts"), "svm.opts.gamma");
    o.gamma_scale = expect_number(expect_member(opts, "gamma_scale", "svm.opts"),
                                  "svm.opts.gamma_scale");
    o.tolerance = expect_number(expect_member(opts, "tolerance", "svm.opts"),
                                "svm.opts.tolerance");
    o.max_iterations = expect_size(
        expect_member(opts, "max_iterations", "svm.opts"), "svm.opts.max_iterations");
    o.max_training_samples =
        expect_size(expect_member(opts, "max_training_samples", "svm.opts"),
                    "svm.opts.max_training_samples");
    o.subsample_seed = parse_hex_u64(
        expect_string(expect_member(opts, "subsample_seed", "svm.opts"),
                      "svm.opts.subsample_seed"),
        "svm.opts.subsample_seed");
    o.whiten =
        expect_bool(expect_member(opts, "whiten", "svm.opts"), "svm.opts.whiten");
    o.whiten_floor = expect_number(
        expect_member(opts, "whiten_floor", "svm.opts"), "svm.opts.whiten_floor");
    return o;
}

io::Json svm_state_to_json(const ml::OneClassSvm::State& s) {
    io::Json j = io::Json::object();
    j.set("opts", svm_opts_to_json(s.opts));
    j.set("fitted", s.fitted);
    j.set("input_mean", json_from_vector(s.input_mean));
    j.set("input_transform", json_from_matrix(s.input_transform));
    j.set("support_vectors", json_from_matrix(s.support_vectors));
    io::Json alpha = io::Json::array();
    for (const double a : s.alpha) alpha.push_back(a);
    j.set("alpha", std::move(alpha));
    j.set("rho", s.rho);
    j.set("gamma", s.gamma);
    j.set("iterations", s.iterations);
    return j;
}

ml::OneClassSvm::State svm_state_from_json(const io::Json& j) {
    ml::OneClassSvm::State s;
    s.opts = svm_opts_from_json(expect_member(j, "opts", "svm"));
    s.fitted = expect_bool(expect_member(j, "fitted", "svm"), "svm.fitted");
    s.input_mean =
        vector_from_json(expect_member(j, "input_mean", "svm"), "svm.input_mean");
    s.input_transform = matrix_from_json(expect_member(j, "input_transform", "svm"),
                                         "svm.input_transform");
    s.support_vectors = matrix_from_json(expect_member(j, "support_vectors", "svm"),
                                         "svm.support_vectors");
    const io::Json& alpha = expect_member(j, "alpha", "svm");
    if (!alpha.is_array()) {
        throw std::invalid_argument("svm.alpha: expected an array");
    }
    s.alpha.resize(alpha.size());
    for (std::size_t i = 0; i < alpha.size(); ++i) {
        s.alpha[i] = expect_number(alpha.at(i), "svm.alpha");
    }
    s.rho = expect_number(expect_member(j, "rho", "svm"), "svm.rho");
    s.gamma = expect_number(expect_member(j, "gamma", "svm"), "svm.gamma");
    s.iterations =
        expect_size(expect_member(j, "iterations", "svm"), "svm.iterations");
    return s;
}

io::Json mars_opts_to_json(const ml::Mars::Options& o) {
    io::Json opts = io::Json::object();
    opts.set("max_terms", o.max_terms);
    opts.set("max_degree", o.max_degree);
    opts.set("penalty", o.penalty);
    opts.set("prune", o.prune);
    opts.set("max_knots_per_variable", o.max_knots_per_variable);
    opts.set("min_relative_improvement", o.min_relative_improvement);
    return opts;
}

io::Json kde_state_to_json(const stats::AdaptiveKde::State& s) {
    io::Json pilot = io::Json::object();
    pilot.set("std_data", json_from_matrix(s.pilot.std_data));
    pilot.set("col_mean", json_from_vector(s.pilot.col_mean));
    pilot.set("col_scale", json_from_vector(s.pilot.col_scale));
    pilot.set("h", s.pilot.h);
    pilot.set("jacobian", s.pilot.jacobian);
    pilot.set("kernel", kernel_name(s.pilot.kernel));

    io::Json lambda = io::Json::array();
    for (const double l : s.lambda) lambda.push_back(l);

    io::Json j = io::Json::object();
    j.set("pilot", std::move(pilot));
    j.set("alpha", s.alpha);
    j.set("g", s.g);
    j.set("lambda", std::move(lambda));
    return j;
}

stats::AdaptiveKde::State kde_state_from_json(const io::Json& j) {
    stats::AdaptiveKde::State s;
    const io::Json& pilot = expect_member(j, "pilot", "kde");
    s.pilot.std_data = matrix_from_json(expect_member(pilot, "std_data", "kde.pilot"),
                                        "kde.pilot.std_data");
    s.pilot.col_mean = vector_from_json(expect_member(pilot, "col_mean", "kde.pilot"),
                                        "kde.pilot.col_mean");
    s.pilot.col_scale = vector_from_json(
        expect_member(pilot, "col_scale", "kde.pilot"), "kde.pilot.col_scale");
    s.pilot.h = expect_number(expect_member(pilot, "h", "kde.pilot"), "kde.pilot.h");
    s.pilot.jacobian = expect_number(expect_member(pilot, "jacobian", "kde.pilot"),
                                     "kde.pilot.jacobian");
    s.pilot.kernel = kernel_from_name(expect_string(
        expect_member(pilot, "kernel", "kde.pilot"), "kde.pilot.kernel"));
    s.alpha = expect_number(expect_member(j, "alpha", "kde"), "kde.alpha");
    s.g = expect_number(expect_member(j, "g", "kde"), "kde.g");
    const io::Json& lambda = expect_member(j, "lambda", "kde");
    if (!lambda.is_array()) {
        throw std::invalid_argument("kde.lambda: expected an array");
    }
    s.lambda.resize(lambda.size());
    for (std::size_t i = 0; i < lambda.size(); ++i) {
        s.lambda[i] = expect_number(lambda.at(i), "kde.lambda");
    }
    // Round-trip validation: from_state enforces the full invariant set.
    return stats::AdaptiveKde::from_state(std::move(s)).export_state();
}

// --- envelope helpers -------------------------------------------------------

/// CRC input: section name, NUL, compact payload text. Binding the name
/// into the digest means a payload moved to a different section slot fails
/// its CRC even though the bytes themselves are intact.
std::uint32_t section_crc(const std::string& name, const io::Json& payload) {
    std::string bytes = name;
    bytes.push_back('\0');
    bytes += payload.dump(0);
    return crc32(bytes);
}

void add_section(io::Json& sections, const std::string& name, io::Json payload) {
    io::Json entry = io::Json::object();
    entry.set("crc32", static_cast<double>(section_crc(name, payload)));
    entry.set("payload", std::move(payload));
    sections.set(name, std::move(entry));
}

/// Fetch a section payload, verifying presence, shape and CRC. Throws
/// ArtifactError for all three failure modes.
const io::Json& checked_section(const io::Json& sections, const std::string& name) {
    if (!sections.contains(name)) {
        throw ArtifactError(ArtifactErrorCode::kMissingSection,
                            "section is absent", name);
    }
    const io::Json& entry = sections.at(name);
    if (!entry.is_object() || !entry.contains("crc32") ||
        !entry.contains("payload") || !entry.at("crc32").is_number()) {
        throw ArtifactError(ArtifactErrorCode::kMalformed,
                            "section entry must be {crc32, payload}", name);
    }
    const double stored_raw = entry.at("crc32").number();
    if (stored_raw < 0.0 || stored_raw > 4294967295.0 ||
        stored_raw != std::floor(stored_raw)) {
        throw ArtifactError(ArtifactErrorCode::kMalformed,
                            "section CRC is not a 32-bit integer", name);
    }
    const auto stored = static_cast<std::uint32_t>(stored_raw);
    const std::uint32_t actual = section_crc(name, entry.at("payload"));
    if (stored != actual) {
        throw ArtifactError(ArtifactErrorCode::kSectionCrc,
                            "stored CRC " + std::to_string(stored) +
                                " != computed " + std::to_string(actual),
                            name);
    }
    return entry.at("payload");
}

std::string fnv1a64_hex(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return hex_u64(h);
}

}  // namespace

std::string artifact_error_code_name(ArtifactErrorCode code) {
    switch (code) {
        case ArtifactErrorCode::kIo: return "io";
        case ArtifactErrorCode::kParse: return "parse";
        case ArtifactErrorCode::kSchema: return "schema";
        case ArtifactErrorCode::kVersionSkew: return "version_skew";
        case ArtifactErrorCode::kConfigHash: return "config_hash";
        case ArtifactErrorCode::kSectionCrc: return "section_crc";
        case ArtifactErrorCode::kMissingSection: return "missing_section";
        case ArtifactErrorCode::kMalformed: return "malformed";
    }
    return "unknown";
}

std::string ArtifactError::format(ArtifactErrorCode code,
                                  const std::string& message,
                                  const std::string& section,
                                  std::size_t offset) {
    std::string out = "artifact ";
    out += artifact_error_code_name(code);
    if (!section.empty()) {
        out += " [section ";
        out += section;
        out += "]";
    }
    if (offset != kNoOffset) {
        out += " [offset ";
        out += std::to_string(offset);
        out += "]";
    }
    out += ": ";
    out += message;
    return out;
}

std::uint32_t crc32(std::string_view bytes) noexcept {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1U) != 0U ? 0xEDB88320U ^ (c >> 1) : c >> 1;
            }
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFU;
    for (const char ch : bytes) {
        crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFU] ^ (crc >> 8);
    }
    return crc ^ 0xFFFFFFFFU;
}

io::Json canonical_config_json(const PipelineConfig& config) {
    io::Json kmm = io::Json::object();
    kmm.set("weight_bound", config.calibration.kmm.weight_bound);
    kmm.set("epsilon", config.calibration.kmm.epsilon);
    kmm.set("gamma", config.calibration.kmm.gamma);
    kmm.set("max_iterations", config.calibration.kmm.max_iterations);
    kmm.set("tolerance", config.calibration.kmm.tolerance);
    io::Json calibration = io::Json::object();
    calibration.set("kmm", std::move(kmm));
    calibration.set("max_shift_iterations", config.calibration.max_shift_iterations);
    calibration.set("shift_tolerance", config.calibration.shift_tolerance);

    io::Json j = io::Json::object();
    j.set("monte_carlo_samples", config.monte_carlo_samples);
    j.set("synthetic_samples", config.synthetic_samples);
    j.set("kde_alpha", config.kde_alpha);
    j.set("kde_bandwidth", config.kde_bandwidth);
    j.set("kde_max_lambda", config.kde_max_lambda);
    j.set("kde_kernel", kernel_name(config.kde_kernel));
    j.set("mars", mars_opts_to_json(config.mars));
    j.set("svm", svm_opts_to_json(config.svm));
    j.set("calibration", std::move(calibration));
    j.set("kmm_min_effective_sample_size", config.kmm_min_effective_sample_size);
    return j;
}

std::string config_fingerprint(const io::Json& canonical_config) {
    return fnv1a64_hex(canonical_config.dump(0));
}

std::string config_fingerprint(const PipelineConfig& config) {
    return config_fingerprint(canonical_config_json(config));
}

BoundaryArtifact BoundaryArtifact::from_pipeline(const GoldenFreePipeline& pipeline,
                                                 std::uint64_t seed,
                                                 std::string tool) {
    BoundaryArtifact artifact;
    artifact.config_json_ = canonical_config_json(pipeline.config());
    artifact.provenance_.seed = seed;
    artifact.provenance_.config_hash = config_fingerprint(artifact.config_json_);
    artifact.provenance_.tool = std::move(tool);

    for (const Boundary b : kAllBoundaries) {
        const std::size_t i = index_of(b);
        artifact.status_[i] = pipeline.boundary_status(b);
        if (artifact.status_[i].usable()) {
            artifact.svms_[i] = pipeline.boundary_svm(b);
            artifact.fingerprint_dims_[i] = pipeline.dataset(b).cols();
        }
    }

    if (pipeline.kde_estimator(Boundary::kB2).has_value()) {
        artifact.kde_s2_ = pipeline.kde_estimator(Boundary::kB2)->export_state();
    }
    if (pipeline.kde_estimator(Boundary::kB5).has_value()) {
        artifact.kde_s5_ = pipeline.kde_estimator(Boundary::kB5)->export_state();
    }

    return artifact;
}

io::Json BoundaryArtifact::to_json() const {
    io::Json sections = io::Json::object();

    add_section(sections, "config", config_json_);

    io::Json provenance = io::Json::object();
    provenance.set("seed", hex_u64(provenance_.seed));
    provenance.set("config_hash", provenance_.config_hash);
    provenance.set("tool", provenance_.tool);
    add_section(sections, "provenance", std::move(provenance));

    io::Json status = io::Json::array();
    for (const Boundary b : kAllBoundaries) {
        const BoundaryStatus& st = status_[index_of(b)];
        io::Json entry = io::Json::object();
        entry.set("boundary", boundary_name(b));
        entry.set("health", boundary_health_name(st.health));
        entry.set("detail", st.detail);
        status.push_back(std::move(entry));
    }
    add_section(sections, "status", std::move(status));

    io::Json kde = io::Json::object();
    kde.set("s2", kde_s2_.has_value() ? kde_state_to_json(*kde_s2_) : io::Json());
    kde.set("s5", kde_s5_.has_value() ? kde_state_to_json(*kde_s5_) : io::Json());
    add_section(sections, "kde", std::move(kde));

    for (const Boundary b : kAllBoundaries) {
        const std::size_t i = index_of(b);
        io::Json entry = io::Json::object();
        entry.set("fingerprint_dim", fingerprint_dims_[i]);
        entry.set("svm", svms_[i].has_value()
                             ? svm_state_to_json(svms_[i]->export_state())
                             : io::Json());
        add_section(sections, "boundary." + boundary_name(b), std::move(entry));
    }

    io::Json doc = io::Json::object();
    doc.set("schema", std::string(kBoundaryArtifactSchema));
    doc.set("version", kBoundaryArtifactVersion);
    doc.set("sections", std::move(sections));
    return doc;
}

BoundaryArtifact BoundaryArtifact::from_json(const io::Json& doc,
                                             const ArtifactLoadOptions& opts,
                                             ArtifactLoadReport* report) {
    ArtifactLoadReport local_report;
    ArtifactLoadReport& rep = report != nullptr ? *report : local_report;
    // A caller may reuse a report object; only this load's degradations are
    // journaled below.
    const std::size_t first_new_note = rep.failed_sections.size();

    if (!doc.is_object()) {
        throw ArtifactError(ArtifactErrorCode::kMalformed,
                            "artifact root must be a JSON object");
    }
    if (!doc.contains("schema") || !doc.at("schema").is_string()) {
        throw ArtifactError(ArtifactErrorCode::kSchema,
                            "missing schema identifier");
    }
    if (doc.at("schema").str() != kBoundaryArtifactSchema) {
        throw ArtifactError(ArtifactErrorCode::kSchema,
                            "schema '" + doc.at("schema").str() +
                                "' is not '" + std::string(kBoundaryArtifactSchema) +
                                "'");
    }
    if (!doc.contains("version") || !doc.at("version").is_number()) {
        throw ArtifactError(ArtifactErrorCode::kVersionSkew,
                            "missing schema version");
    }
    const double version = doc.at("version").number();
    if (version != static_cast<double>(kBoundaryArtifactVersion)) {
        throw ArtifactError(ArtifactErrorCode::kVersionSkew,
                            "artifact version " + std::to_string(version) +
                                " != supported version " +
                                std::to_string(kBoundaryArtifactVersion));
    }
    if (!doc.contains("sections") || !doc.at("sections").is_object()) {
        throw ArtifactError(ArtifactErrorCode::kMalformed,
                            "missing sections object");
    }
    const io::Json& sections = doc.at("sections");

    BoundaryArtifact artifact;

    // Required sections: any problem here is a hard rejection regardless of
    // strictness — without config, provenance and status nothing below can
    // be trusted.
    const io::Json& config = checked_section(sections, "config");
    if (!config.is_object()) {
        throw ArtifactError(ArtifactErrorCode::kMalformed,
                            "config payload must be an object", "config");
    }
    artifact.config_json_ = config;

    const io::Json& provenance = checked_section(sections, "provenance");
    try {
        artifact.provenance_.seed = parse_hex_u64(
            expect_string(expect_member(provenance, "seed", "provenance"),
                          "provenance.seed"),
            "provenance.seed");
        artifact.provenance_.config_hash = expect_string(
            expect_member(provenance, "config_hash", "provenance"),
            "provenance.config_hash");
        artifact.provenance_.tool = expect_string(
            expect_member(provenance, "tool", "provenance"), "provenance.tool");
    } catch (const std::invalid_argument& e) {
        throw ArtifactError(ArtifactErrorCode::kMalformed, e.what(), "provenance");
    }

    const std::string recomputed = config_fingerprint(artifact.config_json_);
    if (recomputed != artifact.provenance_.config_hash) {
        throw ArtifactError(ArtifactErrorCode::kConfigHash,
                            "config fingerprint " + recomputed +
                                " != recorded " + artifact.provenance_.config_hash,
                            "provenance");
    }

    const io::Json& status = checked_section(sections, "status");
    try {
        if (!status.is_array() || status.size() != kAllBoundaries.size()) {
            throw std::invalid_argument("status payload must list all 5 boundaries");
        }
        for (const Boundary b : kAllBoundaries) {
            const std::size_t i = index_of(b);
            const io::Json& entry = status.at(i);
            const std::string& name = expect_string(
                expect_member(entry, "boundary", "status"), "status.boundary");
            if (name != boundary_name(b)) {
                throw std::invalid_argument("status entry " + std::to_string(i) +
                                            " names " + name + ", expected " +
                                            boundary_name(b));
            }
            artifact.status_[i].health = health_from_name(expect_string(
                expect_member(entry, "health", "status"), "status.health"));
            artifact.status_[i].detail = expect_string(
                expect_member(entry, "detail", "status"), "status.detail");
        }
    } catch (const std::invalid_argument& e) {
        throw ArtifactError(ArtifactErrorCode::kMalformed, e.what(), "status");
    }

    // Called from the catch block of a tolerant section (kde, boundary.Bk),
    // which resets that section's state. A strict load
    // rethrows an ArtifactError and wraps a decoder's std::invalid_argument
    // as kMalformed naming the section; a tolerant load records the section
    // as failed with the note `note_prefix + why` and returns why. Any other
    // exception propagates unchanged.
    const auto reject = [&](const std::string& section,
                            const std::string& note_prefix) {
        std::string why;
        try {
            throw;
        } catch (const ArtifactError& e) {
            if (opts.strict) throw;
            why = e.what();
        } catch (const std::invalid_argument& e) {
            if (opts.strict) {
                throw ArtifactError(ArtifactErrorCode::kMalformed, e.what(), section);
            }
            why = e.what();
        }
        rep.failed_sections.push_back(section);
        rep.notes.push_back(note_prefix + why);
        return why;
    };

    // The kde section feeds explain, never a score, so a tolerant load notes
    // its failure and keeps going.
    try {
        const io::Json& kde = checked_section(sections, "kde");
        const io::Json& s2 = expect_member(kde, "s2", "kde");
        if (!s2.is_null()) artifact.kde_s2_ = kde_state_from_json(s2);
        const io::Json& s5 = expect_member(kde, "s5", "kde");
        if (!s5.is_null()) artifact.kde_s5_ = kde_state_from_json(s5);
    } catch (...) {
        artifact.kde_s2_.reset();
        artifact.kde_s5_.reset();
        reject("kde", "section kde rejected: ");
    }

    // Per-boundary sections: a rejected section takes down exactly that
    // boundary. Tolerant loads keep scoring on the survivors; strict loads
    // refuse the whole artifact.
    for (const Boundary b : kAllBoundaries) {
        const std::size_t i = index_of(b);
        const std::string name = "boundary." + boundary_name(b);
        try {
            const io::Json& entry = checked_section(sections, name);
            artifact.fingerprint_dims_[i] = expect_size(
                expect_member(entry, "fingerprint_dim", name.c_str()),
                "fingerprint_dim");
            const io::Json& svm = expect_member(entry, "svm", name.c_str());
            if (artifact.status_[i].usable()) {
                if (svm.is_null()) {
                    throw std::invalid_argument(
                        "status says usable but the model is null");
                }
                artifact.svms_[i] =
                    ml::OneClassSvm::from_state(svm_state_from_json(svm));
                if (!artifact.svms_[i]->fitted()) {
                    throw std::invalid_argument(
                        "status says usable but the model is unfitted");
                }
            }
        } catch (...) {
            artifact.svms_[i].reset();
            artifact.fingerprint_dims_[i] = 0;
            const std::string why = reject(
                name, "boundary " + boundary_name(b) + " failed artifact validation: ");
            artifact.status_[i] = {BoundaryHealth::kFailed,
                                   "artifact section rejected: " + why};
        }
    }

    // Every tolerant repair above is an auditable decision: a degraded
    // section changes (or at least narrows) what the scorer can do, so it
    // lands in the event journal alongside the load-report note.
    obs::EventJournal& journal = obs::EventJournal::global();
    if (journal.enabled()) {
        for (std::size_t i = first_new_note; i < rep.failed_sections.size();
             ++i) {
            obs::Event ev(obs::EventKind::kArtifactDegraded);
            const std::string& section = rep.failed_sections[i];
            constexpr std::string_view prefix = "boundary.";
            if (section.rfind(prefix, 0) == 0) {
                ev.boundary = section.substr(prefix.size());
            }
            ev.detail = i < rep.notes.size() ? rep.notes[i] : section;
            journal.append(std::move(ev));
        }
    }

    return artifact;
}

void BoundaryArtifact::save(const std::string& path) const {
    const std::string text = to_json().dump(2) + "\n";
    const std::string tmp = path + ".tmp";

#if defined(__unix__) || defined(__APPLE__)
    // POSIX path: write + fsync the temp file, rename over the target, then
    // fsync the directory so the rename itself is durable. A crash at any
    // point leaves either the previous artifact or a stray .tmp — never a
    // torn htd.boundary.v1 file.
    // strerror below: mt-unsafe (static buffer) but copied into the
    // exception string before any other call can clobber it, and artifact
    // saves happen on one thread — scoring workers never write artifacts.
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        throw ArtifactError(ArtifactErrorCode::kIo,
                            "cannot open " + tmp + ": " +
                                std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
    }
    std::size_t written = 0;
    while (written < text.size()) {
        const ssize_t n = ::write(fd, text.data() + written, text.size() - written);
        if (n < 0) {
            const std::string why = std::strerror(errno);  // NOLINT(concurrency-mt-unsafe)
            ::close(fd);
            ::unlink(tmp.c_str());
            throw ArtifactError(ArtifactErrorCode::kIo,
                                "short write to " + tmp + ": " + why);
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0 || ::close(fd) != 0) {
        ::unlink(tmp.c_str());
        throw ArtifactError(ArtifactErrorCode::kIo,
                            "cannot fsync " + tmp + ": " +
                                std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        throw ArtifactError(ArtifactErrorCode::kIo,
                            "cannot rename " + tmp + " -> " + path + ": " +
                                std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
    }
    const std::string::size_type slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    const int dirfd = ::open(dir.c_str(), O_RDONLY);
    if (dirfd >= 0) {
        ::fsync(dirfd);  // best effort: the data itself is already durable
        ::close(dirfd);
    }
#else
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
        throw ArtifactError(ArtifactErrorCode::kIo, "cannot open " + tmp);
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.close();
    if (!out) {
        throw ArtifactError(ArtifactErrorCode::kIo, "short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        throw ArtifactError(ArtifactErrorCode::kIo,
                            "cannot rename " + tmp + " -> " + path);
    }
#endif
}

BoundaryArtifact BoundaryArtifact::load(const std::string& path,
                                        const ArtifactLoadOptions& opts,
                                        ArtifactLoadReport* report) {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        throw ArtifactError(ArtifactErrorCode::kIo, "cannot open " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        throw ArtifactError(ArtifactErrorCode::kIo, "cannot read " + path);
    }
    const std::string text = buffer.str();

    io::Json doc;
    try {
        doc = io::Json::parse(text);
    } catch (const io::JsonParseError& e) {
        throw ArtifactError(ArtifactErrorCode::kParse, e.what(), {}, e.offset());
    }

    return from_json(doc, opts, report);
}

}  // namespace htd::core
