/// \file bench_fig4.cpp
/// Reproduces Fig. 4 of the paper: the measured Trojan-free / Trojan-infested
/// fingerprints and the generated datasets S1..S5, projected on the top three
/// principal components. The paper presents six 3-D scatter plots; this
/// harness prints the per-population statistics in PC space (location and
/// spread along PC1..PC3, plus the separation between populations) and
/// writes the raw projected series to CSV files for external plotting.

#include <cstdio>
#include <string>

#include "pipeline/experiment.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "ml/pca.hpp"
#include "stats/descriptive.hpp"

namespace {

using htd::linalg::Matrix;
using htd::linalg::Vector;

void report(htd::io::Table& table, const std::string& name, const Matrix& pc_scores) {
    const Vector mean = htd::stats::column_means(pc_scores);
    const Vector sd = pc_scores.rows() >= 2 ? htd::stats::column_stddevs(pc_scores)
                                            : Vector(pc_scores.cols());
    table.add_row({name, std::to_string(pc_scores.rows()), htd::io::fmt(mean[0], 3),
                   htd::io::fmt(mean[1], 3), htd::io::fmt(mean[2], 3),
                   htd::io::fmt(sd[0], 3), htd::io::fmt(sd[1], 3),
                   htd::io::fmt(sd[2], 3)});
}

Matrix subsample(const Matrix& data, std::size_t cap) {
    if (data.rows() <= cap) return data;
    Matrix out(cap, data.cols());
    const std::size_t stride = data.rows() / cap;
    for (std::size_t i = 0; i < cap; ++i) out.set_row(i, data.row(i * stride));
    return out;
}

}  // namespace

int main() {
    using namespace htd;

    core::ExperimentConfig config;
    const core::ExperimentResult result = core::run_experiment(config);

    // PCA basis from the measured device fingerprints (as in the paper, the
    // projection visualizes the fabricated populations).
    ml::Pca pca;
    pca.fit(result.measured.fingerprints, 3);
    const linalg::Vector evr = pca.explained_variance_ratio();
    std::printf("Fig. 4: PCA projection of fingerprint populations\n");
    std::printf("explained variance ratio: PC1 %.3f, PC2 %.3f, PC3 %.3f\n\n", evr[0],
                evr[1], evr[2]);

    // Split the measured devices by ground truth.
    Matrix tf, ti_amp, ti_freq;
    for (std::size_t i = 0; i < result.measured.size(); ++i) {
        const linalg::Vector row = result.measured.fingerprints.row(i);
        switch (result.measured.variants[i]) {
            case trojan::DesignVariant::kTrojanFree: tf.append_row(row); break;
            case trojan::DesignVariant::kTrojanAmplitude: ti_amp.append_row(row); break;
            case trojan::DesignVariant::kTrojanFrequency: ti_freq.append_row(row); break;
        }
    }

    io::Table table({"population", "n", "PC1 mean", "PC2 mean", "PC3 mean", "PC1 sd",
                     "PC2 sd", "PC3 sd"});
    struct Series {
        std::string name;
        Matrix scores;
    };
    std::vector<Series> series;
    series.push_back({"measured TF (blue)", pca.transform(tf)});
    series.push_back({"measured TI-amp (green)", pca.transform(ti_amp)});
    series.push_back({"measured TI-freq (black)", pca.transform(ti_freq)});
    for (const core::Boundary b : core::kAllBoundaries) {
        series.push_back({core::dataset_name(b) + " (purple)",
                          pca.transform(subsample(result.pipeline->dataset(b), 2000))});
    }
    for (const Series& s : series) report(table, s.name, s.scores);
    std::printf("%s\n", table.str().c_str());

    // Pairwise population separation along PC1 (the paper's plots separate
    // mainly along the leading components).
    const double tf_pc1 = htd::stats::column_means(series[0].scores)[0];
    std::printf("PC1 separation from measured TF:\n");
    for (std::size_t k = 1; k < series.size(); ++k) {
        const double mean_pc1 = htd::stats::column_means(series[k].scores)[0];
        std::printf("  %-26s %+8.3f\n", series[k].name.c_str(), mean_pc1 - tf_pc1);
    }

    // Export every projected series for plotting.
    const std::vector<std::string> header{"pc1", "pc2", "pc3"};
    io::write_csv("fig4_measured_tf.csv", series[0].scores, header);
    io::write_csv("fig4_measured_ti_amp.csv", series[1].scores, header);
    io::write_csv("fig4_measured_ti_freq.csv", series[2].scores, header);
    for (std::size_t i = 0; i < core::kAllBoundaries.size(); ++i) {
        io::write_csv("fig4_" + core::dataset_name(core::kAllBoundaries[i]) + ".csv",
                      series[3 + i].scores, header);
    }
    std::printf("\nwrote fig4_*.csv series (PC1..PC3 per sample)\n");
    return 0;
}
