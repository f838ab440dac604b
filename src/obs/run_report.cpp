#include "obs/run_report.hpp"

#include <cstdio>

#include "obs/sink.hpp"
#include "obs/trace_export.hpp"

namespace htd::obs {

RunReport::RunReport(std::string name) : doc_(io::Json::object()) {
    doc_.set("run", std::move(name));
    // v2 added the optional "health" section; in v3 "observability.metrics"
    // holds only "work".
    doc_.set("schema", "htd.run_report.v3");
}

RunReport& RunReport::set(const std::string& key, io::Json value) {
    doc_.set(key, std::move(value));
    return *this;
}

RunReport& RunReport::capture_observability(const Registry& registry) {
    doc_.set("observability", observability_json(registry));
    return *this;
}

void RunReport::write(const std::string& path, int indent) const {
    doc_.dump_to_file(path, indent);
}

io::Json gate_record(std::string metric, double value, Better better, double rel,
                     double abs) {
    io::Json record = io::Json::object();
    record.set("metric", std::move(metric));
    record.set("value", value);
    record.set("better", better == Better::kLower ? "lower" : "higher");
    record.set("rel", rel);
    record.set("abs", abs);
    return record;
}

std::string write_bench_report(const std::string& bench_name, io::Json payload,
                               io::Json gate, const Registry& registry) {
    RunReport report("bench_" + bench_name);
    report.set("results", std::move(payload));
    report.set("gate", std::move(gate));
    report.capture_observability(registry);
    const std::string path = "BENCH_" + bench_name + ".json";
    report.write(path);
    const std::string trace = write_trace_if_configured(registry);
    if (!trace.empty()) {
        std::fprintf(stderr, "[obs] trace written to %s\n", trace.c_str());
    }
    return path;
}

}  // namespace htd::obs
