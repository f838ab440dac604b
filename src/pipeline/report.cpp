#include "pipeline/report.hpp"

#include "trojan/trojan.hpp"

namespace htd::core {

io::Json experiment_report(const ExperimentConfig& config,
                           const ExperimentResult& result,
                           bool include_measurements) {
    io::Json doc = io::Json::object();
    doc.set("paper",
            "Hardware Trojan Detection through Golden Chip-Free Statistical "
            "Side-Channel Fingerprinting (DAC 2014)");

    io::Json cfg = io::Json::object();
    cfg.set("seed", static_cast<double>(config.seed));
    cfg.set("n_chips", config.n_chips);
    cfg.set("process_shift_sigma", config.process_shift_sigma);
    cfg.set("monte_carlo_samples", config.pipeline.monte_carlo_samples);
    cfg.set("synthetic_samples", config.pipeline.synthetic_samples);
    cfg.set("kde_alpha", config.pipeline.kde_alpha);
    cfg.set("kde_bandwidth", config.pipeline.kde_bandwidth);
    cfg.set("svm_nu", config.pipeline.svm.nu);
    cfg.set("fingerprint_dim", config.platform.fingerprint_dim());
    cfg.set("pcm_dim", config.platform.pcm_dim());
    cfg.set("trojan_amplitude_epsilon", config.platform.trojan_amplitude_epsilon);
    cfg.set("trojan_frequency_delta_ghz", config.platform.trojan_frequency_delta_ghz);
    doc.set("config", std::move(cfg));

    io::Json table = io::Json::array();
    for (std::size_t i = 0; i < kAllBoundaries.size(); ++i) {
        const auto& m = result.table1[i];
        io::Json row = io::Json::object();
        row.set("dataset", dataset_name(kAllBoundaries[i]));
        row.set("boundary", boundary_name(kAllBoundaries[i]));
        row.set("false_positives", m.false_positives);
        row.set("false_negatives", m.false_negatives);
        row.set("trojan_infested_total", m.trojan_infested_total);
        row.set("trojan_free_total", m.trojan_free_total);
        row.set("fp_rate", m.false_positive_rate());
        row.set("fn_rate", m.false_negative_rate());
        row.set("accuracy", m.accuracy());
        table.push_back(std::move(row));
    }
    doc.set("table1", std::move(table));

    io::Json baseline = io::Json::object();
    baseline.set("false_positives", result.golden_baseline.false_positives);
    baseline.set("false_negatives", result.golden_baseline.false_negatives);
    baseline.set("accuracy", result.golden_baseline.accuracy());
    doc.set("golden_chip_baseline", std::move(baseline));

    io::Json diag = io::Json::object();
    const GoldenFreePipeline& pipeline = *result.pipeline;
    diag.set("mars_mean_r2", pipeline.regressions().mean_r_squared());
    diag.set("calibration_iterations",
             pipeline.calibration_result() ? pipeline.calibration_result()->iterations
                                           : std::size_t{0});
    doc.set("diagnostics", std::move(diag));

    if (include_measurements) {
        io::Json devices = io::Json::array();
        for (std::size_t i = 0; i < result.measured.size(); ++i) {
            io::Json dev = io::Json::object();
            dev.set("variant", trojan::variant_name(result.measured.variants[i]));
            dev.set("pcm", io::Json::from(result.measured.pcms.row(i)));
            dev.set("fingerprint",
                    io::Json::from(result.measured.fingerprints.row(i)));
            devices.push_back(std::move(dev));
        }
        doc.set("devices", std::move(devices));
    }
    return doc;
}

void write_experiment_report(const std::string& path, const ExperimentConfig& config,
                             const ExperimentResult& result,
                             bool include_measurements) {
    experiment_report(config, result, include_measurements).dump_to_file(path);
}

obs::RunReport pipeline_run_report(const GoldenFreePipeline& pipeline,
                                   const std::string& run_name,
                                   const silicon::DuttDataset* dutts,
                                   const QuarantineSummary* quarantine) {
    obs::RunReport report(run_name);
    const PipelineConfig& config = pipeline.config();

    io::Json cfg = io::Json::object();
    cfg.set("monte_carlo_samples", config.monte_carlo_samples);
    cfg.set("synthetic_samples", config.synthetic_samples);
    cfg.set("kde_alpha", config.kde_alpha);
    cfg.set("kde_bandwidth", config.kde_bandwidth);
    cfg.set("kde_max_lambda", config.kde_max_lambda);
    cfg.set("svm_nu", config.svm.nu);
    cfg.set("svm_gamma_scale", config.svm.gamma_scale);
    cfg.set("kmm_weight_bound", config.calibration.kmm.weight_bound);
    cfg.set("obs_sink", obs::sink_kind_name(obs::Registry::global().sink()));
    report.set("config", std::move(cfg));

    io::Json boundaries = io::Json::array();
    for (const Boundary b : kAllBoundaries) {
        if (!pipeline.boundary_ready(b)) continue;
        io::Json entry = io::Json::object();
        entry.set("boundary", boundary_name(b));
        entry.set("dataset", dataset_name(b));
        entry.set("health", boundary_health_name(pipeline.boundary_status(b).health));
        const linalg::Matrix& ds = pipeline.dataset(b);
        entry.set("dataset_rows", ds.rows());
        entry.set("dataset_cols", ds.cols());
        const ml::OneClassSvm& svm = pipeline.boundary_svm(b);
        entry.set("support_vectors", svm.support_vector_count());
        entry.set("effective_gamma", svm.effective_gamma());
        entry.set("smo_iterations", svm.iterations_used());
        if (dutts != nullptr) {
            const ml::DetectionMetrics m = pipeline.evaluate(b, *dutts);
            io::Json metrics = io::Json::object();
            metrics.set("false_positives", m.false_positives);
            metrics.set("false_negatives", m.false_negatives);
            metrics.set("trojan_free_total", m.trojan_free_total);
            metrics.set("trojan_infested_total", m.trojan_infested_total);
            metrics.set("fp_rate", m.false_positive_rate());
            metrics.set("fn_rate", m.false_negative_rate());
            metrics.set("accuracy", m.accuracy());
            entry.set("metrics", std::move(metrics));
        }
        boundaries.push_back(std::move(entry));
    }
    report.set("boundaries", std::move(boundaries));

    if (pipeline.calibration_result()) {
        const auto& calibration = *pipeline.calibration_result();
        io::Json cal = io::Json::object();
        cal.set("shift_iterations", calibration.iterations);
        cal.set("total_shift_norm", calibration.total_shift.norm());
        cal.set("kmm_effective_sample_size",
                ml::effective_sample_size(calibration.weights));
        report.set("calibration", std::move(cal));
    }

    report.set("degradation", pipeline.degradation_report());
    if (quarantine != nullptr) {
        report.set("quarantine", quarantine->to_json());
    }

    // The statistical health section (run_report.v2): everything the
    // stages recorded.
    report.set("health", pipeline.health().to_json());

    report.capture_observability();
    return report;
}

}  // namespace htd::core
