/// \file analyzer.cpp
/// The htd_lint analyzer core: walks the tree, runs the per-file front end
/// (lint.cpp) on each file in sorted path order, then runs the global
/// passes — include-graph layering and include-cycle detection — over the
/// per-file extractions. Findings are sorted before reporting, so
/// diagnostic order is deterministic.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "internal.hpp"
#include "lint.hpp"

namespace htd::lint {

namespace fs = std::filesystem;

namespace {

// --- tree walk --------------------------------------------------------------

bool lintable(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp";
}

std::vector<fs::path> collect_files(const std::vector<std::string>& paths) {
    std::vector<fs::path> files;
    for (const std::string& raw : paths) {
        const fs::path p(raw);
        if (fs::is_directory(p)) {
            for (const auto& entry : fs::recursive_directory_iterator(p)) {
                if (entry.is_regular_file() && lintable(entry.path())) {
                    files.push_back(entry.path());
                }
            }
        } else if (fs::is_regular_file(p)) {
            files.push_back(p);
        } else {
            throw std::runtime_error("htd_lint: no such path: " + raw);
        }
    }
    std::sort(files.begin(), files.end(),
              [](const fs::path& a, const fs::path& b) {
                  return a.generic_string() < b.generic_string();
              });
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

/// One walked file plus everything the front end extracted from it.
struct ScanSlot {
    std::string path;  ///< normalized forward-slash path
    FileAnalysis fa;
};

// --- layering pass ----------------------------------------------------------

std::string module_of_include(const std::string& target) {
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos) return {};  // same-directory include
    return target.substr(0, slash);
}

void layering_pass(const std::vector<ScanSlot>& slots, const LayerSpec& spec,
                   std::vector<Finding>& out) {
    // Modules actually present in the walked tree: includes of unknown
    // first components ("gtest/gtest.h") name the outside world, not a
    // layering violation.
    std::set<std::string> present;
    for (const ScanSlot& s : slots) {
        const std::string mod = detail::module_of(s.path);
        if (!mod.empty()) present.insert(mod);
    }
    for (const ScanSlot& s : slots) {
        const std::string mod = detail::module_of(s.path);
        if (mod.empty()) continue;
        const auto from = spec.rank.find(mod);
        if (from == spec.rank.end()) {
            out.push_back(
                {s.path, 1, "layer-unmapped",
                 "module '" + mod +
                     "' is not declared in the layering spec "
                     "(tools/htd_lint/layers.txt); every src/ module must be "
                     "assigned a layer so the architecture contract applies"});
            continue;  // unrankable edges; the cycle pass still covers it
        }
        for (const FileAnalysis::Include& inc : s.fa.includes) {
            const std::string to_mod = module_of_include(inc.target);
            if (to_mod.empty() || to_mod == mod) continue;
            const auto to = spec.rank.find(to_mod);
            if (to == spec.rank.end()) {
                if (present.count(to_mod) != 0) {
                    out.push_back({s.path, inc.line, "layer-unmapped",
                                   "include of \"" + inc.target +
                                       "\" reaches module '" + to_mod +
                                       "', which is not declared in the "
                                       "layering spec"});
                }
                continue;
            }
            if (to->second > from->second) {
                out.push_back(
                    {s.path, inc.line, "layering",
                     "layering back-edge: module '" + mod + "' (layer " +
                         std::to_string(from->second) +
                         ") may not include '" + to_mod + "' (layer " +
                         std::to_string(to->second) + "): " + s.path +
                         " -> \"" + inc.target + "\""});
            } else if (to->second == from->second) {
                out.push_back(
                    {s.path, inc.line, "layering",
                     "peer coupling: modules '" + mod + "' and '" + to_mod +
                         "' share layer " + std::to_string(from->second) +
                         " and must stay mutually independent: " + s.path +
                         " -> \"" + inc.target + "\""});
            }
        }
    }
}

// --- include-cycle pass -----------------------------------------------------

std::string dir_of(const std::string& path) {
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// Resolve each quoted include to an index in `slots` the way the build
/// does: relative to the including file's directory first, then relative
/// to the src/ root (our -I src include path).
std::vector<std::vector<std::pair<std::size_t, std::size_t>>> resolve_edges(
    const std::vector<ScanSlot>& slots) {
    std::map<std::string, std::size_t> index_of;
    for (std::size_t i = 0; i < slots.size(); ++i) index_of[slots[i].path] = i;
    // src/ roots seen in the walked tree ("src/", "foo/src/", ...).
    std::set<std::string> roots;
    for (const ScanSlot& s : slots) {
        const std::size_t pos = s.path.rfind("src/");
        if (pos == 0 || (pos != std::string::npos && s.path[pos - 1] == '/')) {
            roots.insert(s.path.substr(0, pos + 4));
        }
    }
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> edges(
        slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
        for (const FileAnalysis::Include& inc : slots[i].fa.includes) {
            std::vector<std::string> candidates;
            const std::string dir = dir_of(slots[i].path);
            candidates.push_back(dir.empty() ? inc.target : dir + "/" + inc.target);
            for (const std::string& root : roots) {
                candidates.push_back(root + inc.target);
            }
            for (const std::string& cand : candidates) {
                const auto it = index_of.find(cand);
                if (it != index_of.end()) {
                    edges[i].push_back({it->second, inc.line});
                    break;
                }
            }
        }
    }
    return edges;
}

void cycle_pass(const std::vector<ScanSlot>& slots, std::vector<Finding>& out) {
    const auto edges = resolve_edges(slots);
    enum Color : unsigned char { kWhite, kGray, kBlack };
    std::vector<Color> color(slots.size(), kWhite);
    // Each cycle is reported once, keyed by its canonical rotation.
    std::set<std::vector<std::size_t>> seen;

    struct Frame {
        std::size_t node;
        std::size_t next_edge = 0;
    };
    std::vector<Frame> stack;
    std::vector<std::size_t> chain;  // gray nodes, root -> current

    for (std::size_t start = 0; start < slots.size(); ++start) {
        if (color[start] != kWhite) continue;
        stack.push_back({start});
        color[start] = kGray;
        chain.push_back(start);
        while (!stack.empty()) {
            Frame& f = stack.back();
            if (f.next_edge < edges[f.node].size()) {
                const auto [to, line] = edges[f.node][f.next_edge++];
                if (color[to] == kWhite) {
                    color[to] = kGray;
                    chain.push_back(to);
                    stack.push_back({to});
                } else if (color[to] == kGray) {
                    // Back edge: the cycle is chain[pos..end] closed by
                    // this include.
                    const auto pos =
                        std::find(chain.begin(), chain.end(), to);
                    std::vector<std::size_t> cyc(pos, chain.end());
                    // Canonical rotation: start at the smallest index.
                    const auto min_it = std::min_element(cyc.begin(), cyc.end());
                    std::rotate(cyc.begin(), min_it, cyc.end());
                    if (seen.insert(cyc).second) {
                        std::string msg = "include cycle: ";
                        for (auto it = pos; it != chain.end(); ++it) {
                            msg += slots[*it].path + " -> ";
                        }
                        msg += slots[to].path +
                               " (break one of these includes)";
                        out.push_back({slots[f.node].path, line,
                                       "include-cycle", std::move(msg)});
                    }
                }
            } else {
                color[f.node] = kBlack;
                chain.pop_back();
                stack.pop_back();
            }
        }
    }
}

// --- allowlist --------------------------------------------------------------

bool suffix_match(const std::string& path, const std::string& suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

// --- driver -----------------------------------------------------------------

Report lint_paths(const std::vector<std::string>& paths,
                  const Options& options) {
    const std::vector<fs::path> files = collect_files(paths);
    std::vector<ScanSlot> slots(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        ScanSlot& slot = slots[i];
        slot.path = detail::normalize(files[i].generic_string());
        std::ifstream in(files[i], std::ios::binary);
        if (!in.is_open()) {
            throw std::runtime_error("htd_lint: cannot read " + slot.path);
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        slot.fa = analyze_file(slot.path, buf.str());
    }

    Report report;
    report.files_checked = slots.size();
    std::vector<Finding> findings;
    for (const ScanSlot& slot : slots) {
        findings.insert(findings.end(), slot.fa.findings.begin(),
                        slot.fa.findings.end());
        for (const FileAnalysis::Annotation& a : slot.fa.annotations) {
            report.annotations.push_back(
                {slot.path, a.line, a.symbol, a.justification});
        }
    }
    // Slots are path-sorted, so annotations already sort by (file, line) —
    // the per-file scan ordered them by line.

    if (!options.layers.empty()) {
        layering_pass(slots, options.layers, findings);
        cycle_pass(slots, findings);
    }

    // Deterministic order: slots are sorted by path, but global passes
    // append out of file order.
    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });

    std::vector<std::size_t> hits(options.allow.size(), 0);
    for (Finding& f : findings) {
        bool suppressed = false;
        for (std::size_t a = 0; a < options.allow.size(); ++a) {
            const AllowEntry& entry = options.allow[a];
            if ((entry.rule == "*" || entry.rule == f.rule) &&
                suffix_match(f.file, entry.path_suffix)) {
                ++hits[a];
                suppressed = true;
                break;
            }
        }
        if (suppressed) {
            ++report.suppressed;
        } else {
            report.findings.push_back(std::move(f));
        }
    }
    for (std::size_t a = 0; a < options.allow.size(); ++a) {
        if (hits[a] == 0) {
            report.unused_allow.push_back(options.allow[a]);
        } else {
            report.allow_usage.push_back({options.allow[a], hits[a]});
        }
    }
    return report;
}

// --- reports ----------------------------------------------------------------

io::Json report_json(const Report& report) {
    io::Json doc = io::Json::object();
    doc.set("schema", std::string("htd_lint.v4"));
    io::Json arr = io::Json::array();
    for (const Finding& f : report.findings) {
        io::Json rec = io::Json::object();
        rec.set("file", f.file);
        rec.set("line", f.line);
        rec.set("rule", f.rule);
        rec.set("message", f.message);
        arr.push_back(std::move(rec));
    }
    doc.set("findings", std::move(arr));
    doc.set("files_checked", report.files_checked);
    doc.set("suppressed", report.suppressed);
    io::Json annotations = io::Json::array();
    for (const ReportAnnotation& a : report.annotations) {
        io::Json rec = io::Json::object();
        rec.set("file", a.file);
        rec.set("line", a.line);
        rec.set("symbol", a.symbol);
        rec.set("justification", a.justification);
        annotations.push_back(std::move(rec));
    }
    doc.set("annotations", std::move(annotations));
    io::Json allow = io::Json::array();
    for (const AllowUsage& u : report.allow_usage) {
        io::Json rec = io::Json::object();
        rec.set("rule", u.entry.rule);
        rec.set("path_suffix", u.entry.path_suffix);
        rec.set("justification", u.entry.justification);
        rec.set("findings_suppressed", u.hits);
        allow.push_back(std::move(rec));
    }
    doc.set("allowlist", std::move(allow));
    io::Json unused = io::Json::array();
    for (const AllowEntry& e : report.unused_allow) {
        io::Json rec = io::Json::object();
        rec.set("rule", e.rule);
        rec.set("path_suffix", e.path_suffix);
        unused.push_back(std::move(rec));
    }
    doc.set("unused_allowlist_entries", std::move(unused));
    return doc;
}

std::string report_text(const Report& report) {
    std::ostringstream out;
    for (const Finding& f : report.findings) {
        out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
            << "\n";
    }
    for (const AllowEntry& e : report.unused_allow) {
        out << "htd_lint: stale allowlist entry (no findings matched): "
            << e.rule << " " << e.path_suffix << "\n";
    }
    out << "htd_lint: " << report.files_checked << " files, "
        << report.findings.size() << " finding(s), " << report.suppressed
        << " suppressed";
    if (!report.annotations.empty()) {
        out << ", " << report.annotations.size()
            << " audited shared-state site(s)";
    }
    out << "\n";
    return out.str();
}

}  // namespace htd::lint
