#include "explain_cli.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/csv.hpp"
#include "obs/journal.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/explain.hpp"
#include "pipeline/scorer.hpp"

namespace htd::explain_cli {

namespace {

const char* const kHelpText =
    "htd_explain - decision forensics over htd.events.v1 journals and\n"
    "calibration boundary artifacts (DESIGN.md SS15)\n"
    "\n"
    "usage:\n"
    "  htd_explain explain  --artifact <in.json> --fingerprints <in.csv>\n"
    "                       --chip N [--journal <file>] [--top K]\n"
    "                       [--neighbors K] [--json]\n"
    "  htd_explain validate <journal.jsonl>\n"
    "  htd_explain query    <journal.jsonl> [--chip N] [--kind <kind>]\n"
    "                       [--since SEQ] [--json]\n"
    "  htd_explain tail     <journal.jsonl> [--n N] [--json]\n"
    "  htd_explain --help\n"
    "\n"
    "explain joins the calibration artifact, the measured fingerprint CSV\n"
    "and (optionally) the decision journal into one chip's verdict\n"
    "attribution: per-boundary decision + margin, leave-one-channel-out\n"
    "channel ranking with z-scores, nearest calibration neighbours, KDE\n"
    "tail mass, and the journal events that mention the chip.\n"
    "\n"
    "exit codes: 0 ok, 1 error (including a journal failing validation)\n";

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        throw std::runtime_error("cannot open " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Split journal text into (line_number, line) pairs, skipping empty lines.
std::vector<std::pair<std::size_t, std::string>> journal_lines(
    const std::string& text) {
    std::vector<std::pair<std::size_t, std::string>> lines;
    std::size_t line_no = 0;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos) end = text.size();
        ++line_no;
        if (end > start) {
            lines.emplace_back(line_no, text.substr(start, end - start));
        }
        start = end + 1;
    }
    return lines;
}

std::string format_double(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

}  // namespace

JournalCheck check_journal_text(const std::string& text) {
    JournalCheck check;
    std::uint64_t prev_seq = 0;
    for (const auto& [line_no, line] : journal_lines(text)) {
        const std::string at = "line " + std::to_string(line_no) + ": ";
        io::Json event;
        try {
            event = io::Json::parse(line);
        } catch (const std::exception& e) {
            check.errors.push_back(at + "parse error: " + e.what());
            continue;
        }
        if (!event.is_object()) {
            check.errors.push_back(at + "event is not a JSON object");
            continue;
        }
        ++check.records;
        if (!event.contains("schema") || !event.at("schema").is_string() ||
            event.at("schema").str() != std::string(obs::kEventsSchema)) {
            check.errors.push_back(at + "schema tag is not '" +
                                   std::string(obs::kEventsSchema) + "'");
        }
        if (!event.contains("kind") || !event.at("kind").is_string()) {
            check.errors.push_back(at + "missing string 'kind'");
        } else {
            const std::string& kind = event.at("kind").str();
            if (!obs::event_kind_from_name(kind)) {
                check.errors.push_back(at + "unknown event kind '" +
                                       kind + "'");
            }
            ++check.kinds[kind];
        }
        if (!event.contains("seq") || !event.at("seq").is_number()) {
            check.errors.push_back(at + "missing numeric 'seq'");
        } else {
            const auto seq =
                static_cast<std::uint64_t>(event.at("seq").number());
            if (seq <= prev_seq) {
                check.errors.push_back(
                    at + "sequence not strictly increasing (seq " +
                    std::to_string(seq) + " after " +
                    std::to_string(prev_seq) + ")");
            }
            prev_seq = seq;
            if (seq > check.last_seq) check.last_seq = seq;
        }
    }
    check.ok = check.errors.empty();
    return check;
}

JournalCheck check_journal_file(const std::string& path) {
    try {
        return check_journal_text(read_file(path));
    } catch (const std::exception& e) {
        JournalCheck check;
        check.errors.emplace_back(e.what());
        return check;
    }
}

std::vector<io::Json> query_journal_text(const std::string& text,
                                         const JournalQuery& query) {
    std::vector<io::Json> matches;
    for (const auto& [line_no, line] : journal_lines(text)) {
        (void)line_no;
        io::Json event;
        try {
            event = io::Json::parse(line);
        } catch (const std::exception&) {
            continue;  // validate reports these; query just filters
        }
        if (!event.is_object()) continue;
        const auto field = [&](const char* name) -> std::string {
            return event.contains(name) && event.at(name).is_string()
                       ? event.at(name).str()
                       : std::string();
        };
        if (!query.chip.empty() && field("chip") != query.chip) continue;
        if (!query.kind.empty() && field("kind") != query.kind) continue;
        if (query.since > 0) {
            if (!event.contains("seq") || !event.at("seq").is_number() ||
                static_cast<std::uint64_t>(event.at("seq").number()) <
                    query.since) {
                continue;
            }
        }
        matches.push_back(std::move(event));
    }
    return matches;
}

std::string render_event(const io::Json& event) {
    const auto field = [&](const char* name) -> std::string {
        return event.contains(name) && event.at(name).is_string()
                   ? event.at(name).str()
                   : std::string();
    };
    std::ostringstream out;
    if (event.contains("seq") && event.at("seq").is_number()) {
        out << "#" << static_cast<std::uint64_t>(event.at("seq").number());
    } else {
        out << "#?";
    }
    out << " " << field("kind");
    if (const std::string chip = field("chip"); !chip.empty()) {
        out << " chip=" << chip;
    }
    if (const std::string boundary = field("boundary"); !boundary.empty()) {
        out << " boundary=" << boundary;
    }
    if (event.contains("values") && event.at("values").is_object()) {
        for (const auto& [name, value] : event.at("values").members()) {
            if (value.is_number()) {
                out << " " << name << "=" << format_double(value.number());
            }
        }
    }
    if (const std::string detail = field("detail"); !detail.empty()) {
        out << " -- " << detail;
    }
    return out.str();
}

std::string render_explanation(const io::Json& record) {
    std::ostringstream out;
    const std::string chip =
        record.contains("chip") && record.at("chip").is_string()
            ? record.at("chip").str()
            : "?";
    const bool flagged = record.contains("flagged") &&
                         record.at("flagged").is_bool() &&
                         record.at("flagged").boolean();
    const std::string verdict_boundary =
        record.contains("verdict_boundary") &&
                record.at("verdict_boundary").is_string()
            ? record.at("verdict_boundary").str()
            : "";

    out << "chip " << chip << ": ";
    if (verdict_boundary.empty()) {
        out << "NO VERDICT (no usable boundary)\n";
    } else {
        out << (flagged ? "FLAGGED" : "clean") << " by verdict boundary "
            << verdict_boundary << "\n";
    }

    out << "boundaries:\n";
    const io::Json* verdict_entry = nullptr;
    if (record.contains("boundaries") && record.at("boundaries").is_array()) {
        for (const io::Json& be : record.at("boundaries").elements()) {
            const std::string name = be.at("boundary").str();
            const bool usable =
                be.contains("usable") && be.at("usable").boolean();
            out << "  " << name << "  " << be.at("health").str();
            if (usable) {
                const bool inside = be.at("inside").boolean();
                out << "  " << (inside ? "inside " : "OUTSIDE")
                    << "  decision " << format_double(be.at("decision").number())
                    << "  margin " << format_double(be.at("margin").number());
            } else if (be.contains("detail") && be.at("detail").is_string() &&
                       !be.at("detail").str().empty()) {
                out << "  unusable (" << be.at("detail").str() << ")";
            } else {
                out << "  unusable";
            }
            out << "\n";
            if (name == verdict_boundary && usable) verdict_entry = &be;
        }
    }

    if (verdict_entry != nullptr) {
        out << "channel contributions at " << verdict_boundary
            << " (leave-one-channel-out, strongest first):\n";
        std::size_t rank = 0;
        for (const io::Json& ca : verdict_entry->at("channels").elements()) {
            out << "  " << ++rank << ". channel "
                << static_cast<std::size_t>(ca.at("channel").number())
                << "  delta " << format_double(ca.at("loco_delta").number())
                << "  z " << format_double(ca.at("z").number()) << "\n";
        }
        out << "nearest calibration neighbours at " << verdict_boundary
            << ":\n";
        for (const io::Json& nb : verdict_entry->at("neighbors").elements()) {
            out << "  sv#" << static_cast<std::size_t>(nb.at("index").number())
                << "  distance " << format_double(nb.at("distance").number())
                << "  alpha " << format_double(nb.at("alpha").number())
                << "\n";
        }
    }

    if (record.contains("kde") && record.at("kde").is_object()) {
        out << "kde tail mass:";
        for (const char* name : {"s2", "s5"}) {
            const io::Json& t = record.at("kde").at(name);
            out << "  " << name << " ";
            if (t.contains("present") && t.at("present").boolean()) {
                out << "density " << format_double(t.at("density").number())
                    << " (tail percentile "
                    << format_double(t.at("tail_percentile").number()) << ")";
            } else {
                out << "absent";
            }
        }
        out << "\n";
    }
    return out.str();
}

namespace {

struct Args {
    std::string journal;      // positional for validate/query/tail
    std::string artifact;
    std::string fingerprints;
    std::string chip;
    std::string kind;
    std::uint64_t since = 0;
    std::size_t top = 0;       // 0 = all channels
    std::size_t neighbors = 3;
    std::size_t tail_n = 10;
    bool json = false;
    bool chip_set = false;
};

Args parse_args(int argc, const char* const* argv, int first,
                bool journal_positional) {
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
        } else if (flag == "--journal") {
            args.journal = next();
        } else if (flag == "--chip") {
            args.chip = next();
            args.chip_set = true;
        } else if (flag == "--kind") {
            args.kind = next();
        } else if (flag == "--since") {
            args.since = std::stoull(next());
        } else if (flag == "--top") {
            args.top = std::stoul(next());
        } else if (flag == "--neighbors") {
            args.neighbors = std::stoul(next());
        } else if (flag == "--n") {
            args.tail_n = std::stoul(next());
        } else if (flag == "--json") {
            args.json = true;
        } else if (journal_positional && flag.rfind("--", 0) != 0 &&
                   args.journal.empty()) {
            args.journal = flag;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (journal_positional && args.journal.empty()) {
        throw std::invalid_argument("missing <journal.jsonl> argument");
    }
    return args;
}

int run_explain(const Args& args) {
    if (args.artifact.empty() || args.fingerprints.empty() || !args.chip_set) {
        throw std::invalid_argument(
            "explain requires --artifact, --fingerprints and --chip");
    }
    const std::size_t chip = std::stoul(args.chip);
    core::ArtifactLoadReport report;
    const core::BoundaryScorer scorer(
        core::BoundaryArtifact::load(args.artifact, {}, &report));
    for (const std::string& note : report.notes) {
        std::fprintf(stderr, "warning: %s\n", note.c_str());
    }
    const linalg::Matrix fingerprints = io::read_csv(args.fingerprints);
    if (chip >= fingerprints.rows()) {
        throw std::invalid_argument(
            "--chip " + std::to_string(chip) + " out of range (CSV has " +
            std::to_string(fingerprints.rows()) + " devices)");
    }
    core::ExplainOptions opts;
    opts.top_channels = args.top;
    opts.neighbors = args.neighbors;
    const core::ExplainRecord rec =
        scorer.explain(fingerprints.row(chip), args.chip, opts);
    const io::Json doc = rec.to_json();

    if (args.json) {
        std::printf("%s\n", doc.dump(2).c_str());
        return kExitOk;
    }
    std::fputs(render_explanation(doc).c_str(), stdout);
    if (!args.journal.empty()) {
        JournalQuery chip_query;
        chip_query.chip = args.chip;
        const std::vector<io::Json> events =
            query_journal_text(read_file(args.journal), chip_query);
        std::printf("journal events for chip %s (%zu):\n", args.chip.c_str(),
                    events.size());
        for (const io::Json& event : events) {
            std::printf("  %s\n", render_event(event).c_str());
        }
    }
    return kExitOk;
}

int run_validate(const Args& args) {
    const JournalCheck check = check_journal_file(args.journal);
    std::printf("%s: %zu records, last seq %llu\n", args.journal.c_str(),
                check.records,
                static_cast<unsigned long long>(check.last_seq));
    for (const auto& [kind, count] : check.kinds) {
        std::printf("  %-18s %zu\n", kind.c_str(), count);
    }
    for (const std::string& error : check.errors) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
    }
    std::printf(check.ok ? "OK\n" : "INVALID\n");
    return check.ok ? kExitOk : kExitError;
}

int run_query(const Args& args, bool tail) {
    const std::string text = read_file(args.journal);
    std::vector<io::Json> events = query_journal_text(
        text,
        JournalQuery{.chip = args.chip, .kind = args.kind, .since = args.since});
    if (tail && events.size() > args.tail_n) {
        events.erase(events.begin(),
                     events.end() - static_cast<std::ptrdiff_t>(args.tail_n));
    }
    for (const io::Json& event : events) {
        if (args.json) {
            std::printf("%s\n", event.dump().c_str());
        } else {
            std::printf("%s\n", render_event(event).c_str());
        }
    }
    std::fprintf(stderr, "%zu event(s)\n", events.size());
    return kExitOk;
}

}  // namespace

int run(int argc, const char* const* argv) {
    if (argc < 2) {
        std::fputs(kHelpText, stderr);
        return kExitError;
    }
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help") {
        std::fputs(kHelpText, stdout);
        return kExitOk;
    }
    try {
        if (command == "explain") {
            return run_explain(parse_args(argc, argv, 2, false));
        }
        if (command == "validate") {
            return run_validate(parse_args(argc, argv, 2, true));
        }
        if (command == "query") {
            return run_query(parse_args(argc, argv, 2, true), false);
        }
        if (command == "tail") {
            return run_query(parse_args(argc, argv, 2, true), true);
        }
        std::fprintf(stderr, "htd_explain: unknown command '%s'\n",
                     command.c_str());
        std::fputs(kHelpText, stderr);
        return kExitError;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "htd_explain: %s\n", e.what());
        return kExitError;
    }
}

}  // namespace htd::explain_cli
