#include "score_cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/csv.hpp"
#include "io/json.hpp"
#include "obs/journal.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/artifact_fault.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/explain.hpp"
#include "pipeline/scorer.hpp"

namespace htd::score_cli {

namespace {

const char* const kHelpText =
    "htd_score - calibrate once, score forever (DESIGN.md SS14)\n"
    "\n"
    "usage:\n"
    "  htd_score calibrate --artifact <out.json> [--fingerprints <out.csv>]\n"
    "                      [--bscores <out.json>] [--chips N] [--mc N]\n"
    "                      [--synthetic N] [--seed N] [--journal <file>]\n"
    "  htd_score score     --artifact <in.json> --fingerprints <in.csv>\n"
    "                      --bscores <out.json> [--strict] [--journal <file>]\n"
    "                      [--explain <out.json>]\n"
    "  htd_score inject    --artifact <file.json>\n"
    "                      --fault truncate|bit_flip|section_swap|stale_version\n"
    "                      [--seed N]\n"
    "  htd_score --help\n"
    "\n"
    "commands:\n"
    "  calibrate  run the golden-free pipeline end to end on the virtual\n"
    "             platform and persist the trained boundary set as a\n"
    "             versioned artifact (plus measured fingerprints as CSV and\n"
    "             their B-scores as a reference report)\n"
    "  score      load an artifact and classify a fingerprint CSV with zero\n"
    "             retraining; the verdict comes from the highest boundary\n"
    "             that survived calibration and loading\n"
    "  inject     corrupt an artifact with a seeded fault to demonstrate the\n"
    "             rejection path\n"
    "\n"
    "forensics flags:\n"
    "  --journal <file>       append htd.events.v1 records (calibration,\n"
    "                         boundary_fallback, chip_scored, ...) to <file>\n"
    "                         as JSONL; reopening the same file resumes the\n"
    "                         sequence. HTD_OBS_NORMALIZE=1 makes\n"
    "                         same-seed journals byte-identical for diffing.\n"
    "  --explain <out.json>   (score) write one htd.explain.v1 record per\n"
    "                         device: per-boundary decision + margin,\n"
    "                         leave-one-channel-out channel ranking, nearest\n"
    "                         calibration neighbours and KDE tail mass\n"
    "\n"
    "exit codes:\n"
    "  0  clean: command succeeded; for score, no device was flagged by the\n"
    "     verdict boundary\n"
    "  1  flagged or error: at least one device fell outside the verdict\n"
    "     boundary, or a usage/runtime error occurred\n"
    "  2  artifact rejected: the artifact failed validation (never score\n"
    "     against a corrupt artifact)\n";

using namespace htd;

std::string hex_seed(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// The htd.bscores.v1 report: per-boundary health + decision values for a
/// device batch. Emitted identically by the calibrate (in-process pipeline)
/// and score (artifact) paths so the two can be compared byte for byte.
template <typename Source>
io::Json bscores_json(const Source& source, std::uint64_t seed,
                      const linalg::Matrix& fingerprints) {
    io::Json boundaries = io::Json::object();
    for (const core::Boundary b : core::kAllBoundaries) {
        const core::BoundaryStatus& st = source.boundary_status(b);
        io::Json entry = io::Json::object();
        entry.set("health", core::boundary_health_name(st.health));
        entry.set("detail", st.detail);
        if (st.usable()) {
            entry.set("scores",
                      io::Json::from(source.decision_values(b, fingerprints)));
        } else {
            entry.set("scores", io::Json());
        }
        boundaries.set(core::boundary_name(b), std::move(entry));
    }
    io::Json doc = io::Json::object();
    doc.set("schema", "htd.bscores.v1");
    doc.set("seed", hex_seed(seed));
    doc.set("devices", fingerprints.rows());
    doc.set("boundaries", std::move(boundaries));
    return doc;
}

struct Args {
    std::string artifact;
    std::string fingerprints;
    std::string bscores;
    std::string fault;
    std::string journal;
    std::string explain;
    std::size_t chips = 12;
    std::size_t mc = 0;         // 0 = pipeline default
    std::size_t synthetic = 20000;
    std::uint64_t seed = 0;
    bool seed_set = false;
    bool strict = false;
};

Args parse_args(int argc, const char* const* argv, int first) {
    Args args;
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument("missing value for " + flag);
            }
            return argv[++i];
        };
        if (flag == "--artifact") {
            args.artifact = next();
        } else if (flag == "--fingerprints") {
            args.fingerprints = next();
        } else if (flag == "--bscores") {
            args.bscores = next();
        } else if (flag == "--fault") {
            args.fault = next();
        } else if (flag == "--journal") {
            args.journal = next();
        } else if (flag == "--explain") {
            args.explain = next();
        } else if (flag == "--chips") {
            args.chips = std::stoul(next());
        } else if (flag == "--mc") {
            args.mc = std::stoul(next());
        } else if (flag == "--synthetic") {
            args.synthetic = std::stoul(next());
        } else if (flag == "--seed") {
            args.seed = std::stoull(next());
            args.seed_set = true;
        } else if (flag == "--strict") {
            args.strict = true;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    return args;
}

/// Attach the decision-forensics journal before any pipeline work runs, so
/// calibration/fallback/chip_scored events from this invocation land in it.
void open_journal(const Args& args) {
    if (!args.journal.empty()) {
        obs::EventJournal::global().open(args.journal);
    }
}

int run_calibrate(const Args& args) {
    if (args.artifact.empty()) {
        throw std::invalid_argument("calibrate requires --artifact");
    }
    core::ExperimentConfig config;
    config.n_chips = args.chips;
    if (args.mc > 0) config.pipeline.monte_carlo_samples = args.mc;
    config.pipeline.synthetic_samples = args.synthetic;
    if (args.seed_set) config.seed = args.seed;

    // The canonical lot and pipeline of the experiment driver: the same
    // seed always reproduces the calibrate-time B-scores bit for bit.
    const silicon::DuttDataset devices = core::measure_lot(config);
    const std::unique_ptr<core::GoldenFreePipeline> pipeline =
        core::calibrate_pipeline(config, devices.pcms);

    const core::BoundaryArtifact artifact =
        core::BoundaryArtifact::from_pipeline(*pipeline, config.seed, "htd_score");
    artifact.save(args.artifact);
    std::printf("calibrated %zu devices -> %s (config %s)\n", devices.size(),
                args.artifact.c_str(),
                artifact.provenance().config_hash.c_str());

    if (!args.fingerprints.empty()) {
        io::write_csv(args.fingerprints, devices.fingerprints);
        std::printf("wrote fingerprints %s (%zu x %zu)\n",
                    args.fingerprints.c_str(), devices.fingerprints.rows(),
                    devices.fingerprints.cols());
    }
    if (!args.bscores.empty()) {
        bscores_json(*pipeline, config.seed, devices.fingerprints)
            .dump_to_file(args.bscores);
        std::printf("wrote reference B-scores %s\n", args.bscores.c_str());
    }
    return kExitClean;
}

int run_score(const Args& args) {
    if (args.artifact.empty() || args.fingerprints.empty() ||
        args.bscores.empty()) {
        throw std::invalid_argument(
            "score requires --artifact, --fingerprints and --bscores");
    }
    core::ArtifactLoadReport report;
    const core::BoundaryScorer scorer(core::BoundaryArtifact::load(
        args.artifact, {.strict = args.strict}, &report));
    for (const std::string& note : report.notes) {
        std::fprintf(stderr, "warning: %s\n", note.c_str());
    }

    const linalg::Matrix fingerprints = io::read_csv(args.fingerprints);
    bscores_json(scorer, scorer.artifact().provenance().seed, fingerprints)
        .dump_to_file(args.bscores);

    std::size_t usable = 0;
    for (const core::Boundary b : core::kAllBoundaries) {
        usable += scorer.boundary_ready(b) ? 1 : 0;
    }
    std::printf("scored %zu devices against %zu/5 boundaries -> %s\n",
                fingerprints.rows(), usable, args.bscores.c_str());

    const std::optional<core::Boundary> vb = scorer.verdict_boundary();
    if (!vb.has_value()) {
        std::fprintf(stderr,
                     "htd_score: no usable boundary survived calibration and "
                     "loading; no verdict possible\n");
        return kExitFlaggedOrError;
    }

    // The production verdict: classify against the highest surviving
    // boundary. With --journal this emits one chip_scored event per device.
    const std::vector<bool> inside = scorer.classify(*vb, fingerprints);
    std::size_t flagged = 0;
    for (const bool in : inside) flagged += in ? 0 : 1;

    if (!args.explain.empty()) {
        io::Json records = io::Json::array();
        for (std::size_t r = 0; r < fingerprints.rows(); ++r) {
            records.push_back(
                scorer.explain(fingerprints.row(r), std::to_string(r))
                    .to_json());
        }
        io::Json doc = io::Json::object();
        doc.set("schema", std::string(core::kExplainSchema));
        doc.set("devices", fingerprints.rows());
        doc.set("records", std::move(records));
        doc.dump_to_file(args.explain);
        std::printf("wrote explanations %s\n", args.explain.c_str());
    }

    std::printf("verdict boundary %s: %zu of %zu devices flagged\n",
                core::boundary_name(*vb).c_str(), flagged, inside.size());
    return flagged > 0 ? kExitFlaggedOrError : kExitClean;
}

int run_inject(const Args& args) {
    if (args.artifact.empty() || args.fault.empty()) {
        throw std::invalid_argument("inject requires --artifact and --fault");
    }
    core::ArtifactFault fault{};
    if (args.fault == "truncate") {
        fault = core::ArtifactFault::kTruncate;
    } else if (args.fault == "bit_flip") {
        fault = core::ArtifactFault::kBitFlip;
    } else if (args.fault == "section_swap") {
        fault = core::ArtifactFault::kSectionSwap;
    } else if (args.fault == "stale_version") {
        fault = core::ArtifactFault::kStaleVersion;
    } else {
        throw std::invalid_argument("unknown fault '" + args.fault + "'");
    }
    core::ArtifactFaultInjector injector(args.seed_set ? args.seed : 1);
    const std::string what = injector.corrupt_file(args.artifact, fault);
    std::printf("injected %s into %s\n", what.c_str(), args.artifact.c_str());
    return kExitClean;
}

}  // namespace

const std::string& help_text() {
    static const std::string text = kHelpText;
    return text;
}

int run(int argc, const char* const* argv) {
    if (argc < 2) {
        std::fputs(kHelpText, stderr);
        return kExitFlaggedOrError;
    }
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help") {
        std::fputs(kHelpText, stdout);
        return kExitClean;
    }
    try {
        const Args args = parse_args(argc, argv, 2);
        open_journal(args);
        if (command == "calibrate") return run_calibrate(args);
        if (command == "score") return run_score(args);
        if (command == "inject") return run_inject(args);
        std::fprintf(stderr, "htd_score: unknown command '%s'\n",
                     command.c_str());
        std::fputs(kHelpText, stderr);
        return kExitFlaggedOrError;
    } catch (const core::ArtifactError& e) {
        std::fprintf(stderr, "htd_score: artifact rejected: %s\n", e.what());
        return kExitArtifactRejected;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "htd_score: %s\n", e.what());
        return kExitFlaggedOrError;
    }
}

}  // namespace htd::score_cli
