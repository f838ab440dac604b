/// \file bench_compare.cpp
/// Perf/quality regression gate over the BENCH_*.json artifacts.
///
/// Every gated artifact carries a top-level "gate" array of
/// `{metric, value, better: "lower"|"higher", rel, abs}` records written by
/// its producer (obs::gate_record). Each blessed record in
/// <baseline-dir>/BENCH_<name>.json is matched by metric against
/// <candidate-dir>/BENCH_<name>.json and judged by one rule, with the band
/// taken from the blessed record:
///
///   worse = candidate - baseline   (better = "lower")
///         = baseline - candidate   (better = "higher")
///   fail when worse > max(rel * |baseline|, abs)
///
/// A blessed metric missing from the candidate fails as well.
///
/// Usage:
///   bench_compare [--baseline-dir DIR] [--candidate-dir DIR] [--bless]
///                 [name...]
///
/// Names default to every BENCH_<name>.json in the baseline dir. A named
/// artifact without a baseline file is reported as unblessed and skipped; a
/// missing *candidate* file is a hard usage error. Exit codes: 0 = no
/// regression, 1 = regression detected, 2 = usage / IO error.
///
/// On any gated regression the tool points at tools/htd_profile, which
/// attributes the delta to pipeline stages / work counters.
///
/// --bless copies the candidate artifacts over the baselines (exit 0).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace {

namespace fs = std::filesystem;
using htd::io::Json;

/// One `gate` record of a BENCH_*.json artifact.
struct Record {
    std::string metric;
    double value = 0.0;
    bool higher_is_better = false;
    double rel = 0.0;
    double abs = 0.0;
};

struct Check {
    Record base;
    std::optional<double> candidate{};  ///< empty when the candidate lacks the metric
    bool ok = false;
};

/// The artifact's gate records in file order; throws on a missing or
/// malformed `gate` array.
std::vector<Record> load_gate(const fs::path& path) {
    const Json doc = Json::parse_file(path.string());
    if (!doc.is_object() || !doc.contains("gate")) {
        throw std::runtime_error(path.string() + ": no \"gate\" array");
    }
    std::vector<Record> records;
    for (const Json& r : doc.at("gate").elements()) {
        const std::string& better = r.at("better").str();
        if (better != "lower" && better != "higher") {
            throw std::runtime_error(path.string() + ": " + r.at("metric").str() +
                                     ": better must be \"lower\" or \"higher\"");
        }
        records.push_back({r.at("metric").str(), r.at("value").number(),
                           better == "higher", r.at("rel").number(),
                           r.at("abs").number()});
    }
    return records;
}

/// The one rule: fail when the candidate moved in the bad direction by more
/// than max(rel * |baseline|, abs). Compared as candidate against
/// baseline +/- band rather than as a difference, so a value exactly at the
/// band passes: 0.3 + 0.1 == 0.4 in binary floating point, but
/// 0.4 - 0.3 > 0.1.
bool within_band(const Record& base, double candidate) {
    const double band = std::max(base.rel * std::fabs(base.value), base.abs);
    return base.higher_is_better ? candidate >= base.value - band
                                 : candidate <= base.value + band;
}

std::string rule_text(const Record& r) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s baseline %s max(%g%%, %g)",
                  r.higher_is_better ? ">=" : "<=", r.higher_is_better ? "-" : "+",
                  r.rel * 100.0, r.abs);
    return buf;
}

fs::path artifact_path(const std::string& dir, const std::string& name) {
    return fs::path(dir) / ("BENCH_" + name + ".json");
}

/// Every <name> with a BENCH_<name>.json in `dir`, sorted.
std::vector<std::string> blessed_names(const std::string& dir) {
    std::vector<std::string> names;
    std::error_code ec;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
        const std::string file = entry.path().filename().string();
        if (entry.is_regular_file() && file.size() > 11 &&
            file.rfind("BENCH_", 0) == 0 &&
            file.compare(file.size() - 5, 5, ".json") == 0) {
            names.push_back(file.substr(6, file.size() - 11));
        }
    }
    std::sort(names.begin(), names.end());
    return names;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--baseline-dir DIR] [--candidate-dir DIR] [--bless] "
                 "[name...]\n"
                 "names default to every BENCH_<name>.json in the baseline dir\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string baseline_dir = "bench/baselines";
    std::string candidate_dir = ".";
    bool bless = false;
    std::vector<std::string> names;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--baseline-dir" || arg == "--candidate-dir") {
            if (i + 1 >= argc) return usage(argv[0]);
            (arg == "--baseline-dir" ? baseline_dir : candidate_dir) = argv[++i];
        } else if (arg == "--bless") {
            bless = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            names.push_back(arg);
        }
    }
    if (names.empty()) names = blessed_names(baseline_dir);

    if (bless) {
        std::error_code ec;
        fs::create_directories(baseline_dir, ec);
        for (const std::string& name : names) {
            const fs::path src = artifact_path(candidate_dir, name);
            if (!fs::exists(src)) {
                std::fprintf(stderr, "bench_compare: cannot bless %s: %s missing\n",
                             name.c_str(), src.string().c_str());
                return 2;
            }
            const fs::path dst = artifact_path(baseline_dir, name);
            fs::copy_file(src, dst, fs::copy_options::overwrite_existing, ec);
            if (ec) {
                std::fprintf(stderr, "bench_compare: bless %s failed: %s\n",
                             name.c_str(), ec.message().c_str());
                return 2;
            }
            std::printf("blessed %s -> %s\n", src.string().c_str(),
                        dst.string().c_str());
        }
        return 0;
    }

    int regressions = 0;
    for (const std::string& name : names) {
        const fs::path base_path = artifact_path(baseline_dir, name);
        const fs::path cand_path = artifact_path(candidate_dir, name);
        if (!fs::exists(base_path)) {
            std::printf("%-12s UNBLESSED (no %s; run with --bless to create)\n",
                        name.c_str(), base_path.string().c_str());
            continue;
        }
        if (!fs::exists(cand_path)) {
            std::fprintf(stderr, "bench_compare: candidate %s missing\n",
                         cand_path.string().c_str());
            return 2;
        }
        std::vector<Check> checks;
        try {
            std::map<std::string, double> cand;
            for (const Record& r : load_gate(cand_path)) cand[r.metric] = r.value;
            for (const Record& base : load_gate(base_path)) {
                Check c{base};
                const auto it = cand.find(base.metric);
                if (it != cand.end()) c.candidate = it->second;
                c.ok = c.candidate && within_band(base, *c.candidate);
                checks.push_back(std::move(c));
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "bench_compare: %s: %s\n", name.c_str(), e.what());
            return 2;
        }

        const auto failed = std::count_if(checks.begin(), checks.end(),
                                          [](const Check& c) { return !c.ok; });
        regressions += static_cast<int>(failed);
        std::printf("%-12s %s (%zu checks, %td failed)\n", name.c_str(),
                    failed != 0 ? "REGRESSION" : "OK", checks.size(), failed);
        for (const Check& c : checks) {
            if (c.ok) continue;
            char candidate[32] = "missing";
            if (c.candidate) std::snprintf(candidate, sizeof candidate, "%.6g", *c.candidate);
            std::printf("  FAIL   %-38s baseline %.6g candidate %s  rule: %s\n",
                        c.base.metric.c_str(), c.base.value, candidate,
                        rule_text(c.base).c_str());
        }
        if (failed != 0) {
            std::printf("  hint: attribute this with tools/htd_profile — e.g.\n"
                        "        htd_profile %s %s\n",
                        base_path.string().c_str(), cand_path.string().c_str());
        }
    }
    return regressions == 0 ? 0 : 1;
}
