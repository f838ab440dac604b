/// \file bench_roc.cpp
/// Threshold-free view of Table 1: ROC curves of the five boundaries'
/// decision values over the 120 DUTTs, plus the same analysis with the k-NN
/// one-class baseline in place of the SVM (showing the Table-1 shape is a
/// property of the pipeline, not of the specific classifier). Writes
/// roc_<boundary>.csv series and a BENCH_roc.json run report with the
/// per-boundary AUCs and the timed pipeline spans. The lot and pipeline are
/// seeded, so every gate record is exact (rel 0, abs 0).

#include <cstdio>

#include "pipeline/experiment.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "ml/knn_detector.hpp"
#include "obs/run_report.hpp"

int main() {
    using namespace htd;

    core::ExperimentConfig config;
    const silicon::DuttDataset measured = core::measure_lot(config);
    const auto labels = measured.labels();

    obs::Registry::global().configure(obs::SinkKind::kJson);  // time the stages for the report
    const std::unique_ptr<core::GoldenFreePipeline> pipeline =
        core::calibrate_pipeline(config, measured.pcms);

    std::printf("ROC analysis of the trusted-region decision values\n\n");
    io::Table table({"boundary", "AUC", "FN at FP=0"});
    io::Json roc_results = io::Json::array();
    io::Json gate = io::Json::array();
    for (const core::Boundary b : core::kAllBoundaries) {
        const linalg::Vector dv = pipeline->decision_values(b, measured.fingerprints);
        const std::vector<double> scores(dv.begin(), dv.end());
        const auto curve = ml::roc_curve(scores, labels);

        // Best achievable FN while keeping FP = 0 (the paper's operating
        // regime: no Trojan-infested device may be accepted).
        double fn_at_fp0 = 1.0;
        for (const auto& pt : curve) {
            if (pt.fp_rate == 0.0) fn_at_fp0 = std::min(fn_at_fp0, pt.fn_rate);
        }
        const std::string name = core::boundary_name(b);
        const double auc = ml::roc_auc(curve);
        table.add_row({name, io::fmt(auc, 3), io::fmt(fn_at_fp0 * 40.0, 0) + "/40"});
        io::Json entry = io::Json::object();
        entry.set("boundary", name);
        entry.set("auc", auc);
        entry.set("fn_rate_at_fp0", fn_at_fp0);
        roc_results.push_back(std::move(entry));
        gate.push_back(
            obs::gate_record(name + ".auc", auc, obs::Better::kHigher, 0.0, 0.0));
        gate.push_back(obs::gate_record(name + ".fn_rate_at_fp0", fn_at_fp0,
                                        obs::Better::kLower, 0.0, 0.0));

        linalg::Matrix series(curve.size(), 3);
        for (std::size_t k = 0; k < curve.size(); ++k) {
            series(k, 0) = curve[k].threshold;
            series(k, 1) = curve[k].fp_rate;
            series(k, 2) = curve[k].fn_rate;
        }
        io::write_csv("roc_" + core::boundary_name(b) + ".csv", series,
                      {"threshold", "fp_rate", "fn_rate"});
    }
    std::printf("%s\n", table.str().c_str());

    // Detector swap: k-NN one-class on the same S5 population.
    ml::KnnDetector knn({.k = 5, .nu = config.pipeline.svm.nu});
    knn.fit(pipeline->dataset(core::Boundary::kB5));
    std::vector<double> knn_scores(measured.size());
    std::vector<bool> knn_inside(measured.size());
    for (std::size_t i = 0; i < measured.size(); ++i) {
        knn_scores[i] = knn.decision_value(measured.fingerprints.row(i));
        knn_inside[i] = knn_scores[i] >= 0.0;
    }
    const auto knn_metrics = ml::evaluate_detection(knn_inside, labels);
    const double knn_auc = ml::roc_auc(ml::roc_curve(knn_scores, labels));
    std::printf("detector swap (k-NN one-class on S5): %s, AUC %.3f\n",
                knn_metrics.str().c_str(), knn_auc);
    std::printf("wrote roc_B1..B5.csv series\n");

    io::Json payload = io::Json::object();
    payload.set("boundaries", std::move(roc_results));
    io::Json swap = io::Json::object();
    swap.set("detector", "knn_one_class");
    swap.set("auc", knn_auc);
    swap.set("fp_rate", knn_metrics.false_positive_rate());
    swap.set("fn_rate", knn_metrics.false_negative_rate());
    swap.set("accuracy", knn_metrics.accuracy());
    payload.set("detector_swap", std::move(swap));
    gate.push_back(obs::gate_record("detector_swap.accuracy", knn_metrics.accuracy(),
                                    obs::Better::kHigher, 0.0, 0.0));
    gate.push_back(obs::gate_record("detector_swap.auc", knn_auc, obs::Better::kHigher,
                                    0.0, 0.0));
    const std::string path =
        obs::write_bench_report("roc", std::move(payload), std::move(gate));
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
