/// \file main.cpp
/// htd_lint CLI. See lint.hpp for the rule catalog and DESIGN.md §11–12
/// for why these invariants exist.
///
///   htd_lint [--json] [--allowlist FILE] [--layers FILE] [--root DIR]
///            [PATH...]
///
/// PATHs default to `src tools bench tests examples` (relative to
/// --root, default "."). Exit 0 when clean, 1 on findings or stale
/// allowlist entries, 2 on usage/IO errors.

#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

constexpr const char* kUsage =
    "usage: htd_lint [--json] [--allowlist FILE] [--layers FILE]\n"
    "                [--root DIR] [PATH...]\n"
    "\n"
    "Checks htd project invariants (seeded RNG, obs-only output, centralized\n"
    "NaN screening, header hygiene, checked stream opens, module layering,\n"
    "include cycles, [[nodiscard]] coverage) and\n"
    "same-seed determinism contracts (audited mutable static state,\n"
    "unordered-iteration escapes into serialized output, wall-clock engine\n"
    "seeds) over *.cpp/*.hpp trees. Default PATHs: src tools bench tests\n"
    "examples.\n"
    "\n"
    "  --json            machine-readable htd_lint.v4 report on stdout\n"
    "  --allowlist FILE  vetted exceptions, '<rule> <path-suffix>' per line\n"
    "                    (default: tools/htd_lint/allowlist.txt under --root\n"
    "                    when present)\n"
    "  --layers FILE     module layering spec (default:\n"
    "                    tools/htd_lint/layers.txt under --root when present;\n"
    "                    absent file disables the layering pass)\n"
    "  --root DIR        directory PATHs are resolved against (default .)\n";

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in.is_open()) throw std::runtime_error("htd_lint: cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
    bool json = false;
    std::string allowlist_path;
    std::string layers_path;
    std::string root = ".";
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need_value = [&](const char* what) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "htd_lint: " << arg << " needs " << what << "\n"
                          << kUsage;
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--json") {
            json = true;
        } else if (arg == "--allowlist") {
            const char* v = need_value("a file argument");
            if (v == nullptr) return 2;
            allowlist_path = v;
        } else if (arg == "--layers") {
            const char* v = need_value("a file argument");
            if (v == nullptr) return 2;
            layers_path = v;
        } else if (arg == "--root") {
            const char* v = need_value("a directory argument");
            if (v == nullptr) return 2;
            root = v;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << kUsage;
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "htd_lint: unknown option '" << arg << "'\n" << kUsage;
            return 2;
        } else {
            paths.push_back(arg);
        }
    }

    try {
        namespace fs = std::filesystem;
        if (paths.empty()) {
            for (const char* dir : {"src", "tools", "bench", "tests", "examples"}) {
                if (fs::exists(fs::path(root) / dir)) paths.emplace_back(dir);
            }
        }
        for (std::string& p : paths) p = (fs::path(root) / p).generic_string();

        if (allowlist_path.empty()) {
            const fs::path def = fs::path(root) / "tools" / "htd_lint" / "allowlist.txt";
            if (fs::exists(def)) allowlist_path = def.generic_string();
        }
        if (layers_path.empty()) {
            const fs::path def = fs::path(root) / "tools" / "htd_lint" / "layers.txt";
            if (fs::exists(def)) layers_path = def.generic_string();
        }

        htd::lint::Options options;
        if (!allowlist_path.empty()) {
            options.allow = htd::lint::parse_allowlist(read_file(allowlist_path));
        }
        if (!layers_path.empty()) {
            options.layers = htd::lint::parse_layers(read_file(layers_path));
        }

        const htd::lint::Report report = htd::lint::lint_paths(paths, options);
        if (json) {
            std::cout << htd::lint::report_json(report).dump(2) << '\n';
        } else {
            std::cout << htd::lint::report_text(report);
        }
        return report.clean() && report.unused_allow.empty() ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << e.what() << '\n';
        return 2;
    }
}
