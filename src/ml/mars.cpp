#include "ml/mars.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "linalg/decompositions.hpp"
#include "obs/span.hpp"

namespace htd::ml {

namespace {

/// Column-wise design matrix handled as a list of columns for cheap append.
struct Design {
    std::vector<std::vector<double>> cols;
    std::size_t n = 0;

    void add(std::vector<double> col) { cols.push_back(std::move(col)); }
};

/// Solve least squares via ridge-stabilized normal equations; returns the
/// coefficients and fills `rss_out`.
std::vector<double> least_squares(const Design& d, const linalg::Vector& y,
                                  double* rss_out) {
    const std::size_t m = d.cols.size();
    const std::size_t n = d.n;
    linalg::Matrix g(m, m);
    linalg::Vector b(m);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = i; j < m; ++j) {
            double acc = 0.0;
            for (std::size_t r = 0; r < n; ++r) acc += d.cols[i][r] * d.cols[j][r];
            g(i, j) = acc;
            g(j, i) = acc;
        }
        double acc = 0.0;
        for (std::size_t r = 0; r < n; ++r) acc += d.cols[i][r] * y[r];
        b[i] = acc;
    }
    const linalg::Vector c = linalg::solve_spd_ridge(g, b, 1e-10);
    if (rss_out != nullptr) {
        double rss = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
            double pred = 0.0;
            for (std::size_t i = 0; i < m; ++i) pred += c[i] * d.cols[i][r];
            const double e = y[r] - pred;
            rss += e * e;
        }
        *rss_out = rss;
    }
    return {c.begin(), c.end()};
}

double gcv_score(double rss, std::size_t n, std::size_t m_terms, double penalty) {
    const double n_d = static_cast<double>(n);
    const double m_d = static_cast<double>(m_terms);
    const double c_m = m_d + penalty * (m_d - 1.0) / 2.0;
    const double denom = 1.0 - c_m / n_d;
    if (denom <= 0.0) return std::numeric_limits<double>::infinity();
    return rss / (n_d * denom * denom);
}

}  // namespace

bool BasisTerm::uses_variable(std::size_t v) const noexcept {
    for (const HingeFactor& f : factors) {
        if (f.variable == v) return true;
    }
    return false;
}

std::string BasisTerm::str() const {
    if (factors.empty()) return "1";
    std::ostringstream os;
    for (std::size_t i = 0; i < factors.size(); ++i) {
        if (i > 0) os << " * ";
        const HingeFactor& f = factors[i];
        os << "h(" << (f.positive ? '+' : '-') << "(x" << f.variable << " - "
           << f.knot << "))";
    }
    return os.str();
}

Mars::Mars(Options opts) : opts_(opts) {
    if (opts.max_terms < 1) throw std::invalid_argument("Mars: max_terms < 1");
    if (opts.max_degree < 1) throw std::invalid_argument("Mars: max_degree < 1");
    if (opts.penalty < 0.0) throw std::invalid_argument("Mars: negative penalty");
}

void Mars::fit(const linalg::Matrix& x, const linalg::Vector& y) {
    const std::size_t n = x.rows();
    const std::size_t p = x.cols();
    if (n == 0 || p == 0) throw std::invalid_argument("Mars::fit: empty dataset");
    if (y.size() != n) throw std::invalid_argument("Mars::fit: x/y size mismatch");
    obs::ScopedSpan span("mars.fit");
    span.attr("samples", static_cast<double>(n));
    span.attr("inputs", static_cast<double>(p));
    input_dim_ = p;

    // Candidate knots: sorted distinct values per variable, optionally thinned
    // to a quantile-spaced subset.
    std::vector<std::vector<double>> knots(p);
    for (std::size_t v = 0; v < p; ++v) {
        std::set<double> uniq;
        for (std::size_t r = 0; r < n; ++r) uniq.insert(x(r, v));
        std::vector<double> vals(uniq.begin(), uniq.end());
        if (opts_.max_knots_per_variable > 0 && vals.size() > opts_.max_knots_per_variable) {
            std::vector<double> thin;
            thin.reserve(opts_.max_knots_per_variable);
            const double step = static_cast<double>(vals.size() - 1) /
                                static_cast<double>(opts_.max_knots_per_variable - 1);
            for (std::size_t k = 0; k < opts_.max_knots_per_variable; ++k) {
                thin.push_back(vals[static_cast<std::size_t>(std::llround(
                    step * static_cast<double>(k)))]);
            }
            vals = std::move(thin);
        }
        knots[v] = std::move(vals);
    }

    // Forward pass.
    terms_ = {BasisTerm{}};  // intercept
    Design design;
    design.n = n;
    design.add(std::vector<double>(n, 1.0));

    double current_rss = 0.0;
    coef_ = least_squares(design, y, &current_rss);

    while (terms_.size() + 2 <= opts_.max_terms) {
        double best_rss = std::numeric_limits<double>::infinity();
        std::size_t best_parent = 0, best_var = 0;
        double best_knot = 0.0;
        bool found = false;

        for (std::size_t parent = 0; parent < terms_.size(); ++parent) {
            if (terms_[parent].degree() >= opts_.max_degree) continue;
            const std::vector<double>& parent_col = design.cols[parent];
            for (std::size_t v = 0; v < p; ++v) {
                if (terms_[parent].uses_variable(v)) continue;
                for (double t : knots[v]) {
                    // Build the mirrored hinge pair columns.
                    std::vector<double> c_pos(n), c_neg(n);
                    bool nonzero_pos = false, nonzero_neg = false;
                    for (std::size_t r = 0; r < n; ++r) {
                        const double base = parent_col[r];
                        const double d = x(r, v) - t;
                        const double hp = base * (d > 0.0 ? d : 0.0);
                        const double hn = base * (d < 0.0 ? -d : 0.0);
                        c_pos[r] = hp;
                        c_neg[r] = hn;
                        nonzero_pos |= hp != 0.0;
                        nonzero_neg |= hn != 0.0;
                    }
                    if (!nonzero_pos && !nonzero_neg) continue;

                    Design trial = design;
                    trial.add(std::move(c_pos));
                    trial.add(std::move(c_neg));
                    double rss = 0.0;
                    least_squares(trial, y, &rss);
                    // Strict-improvement tie-breaking: a candidate must beat
                    // the incumbent by a relative margin. Ties then resolve
                    // by enumeration order, which makes the selected basis
                    // identical across responses that differ only by an
                    // offset — important when several outputs share the same
                    // underlying dependency (the paper's six fingerprints).
                    if (rss < best_rss * (1.0 - 1e-9)) {
                        best_rss = rss;
                        best_parent = parent;
                        best_var = v;
                        best_knot = t;
                        found = true;
                    }
                }
            }
        }

        if (!found) break;
        const double improvement =
            (current_rss - best_rss) / std::max(current_rss, 1e-300);
        if (improvement < opts_.min_relative_improvement) break;

        BasisTerm pos = terms_[best_parent];
        pos.factors.push_back({best_var, best_knot, true});
        BasisTerm neg = terms_[best_parent];
        neg.factors.push_back({best_var, best_knot, false});
        // Recompute columns from the stored terms (cheap, and avoids moving
        // trial state out of the search loop).
        std::vector<double> col_pos(n), col_neg(n);
        for (std::size_t r = 0; r < n; ++r) {
            col_pos[r] = pos.evaluate(x.row_span(r));
            col_neg[r] = neg.evaluate(x.row_span(r));
        }
        terms_.push_back(std::move(pos));
        terms_.push_back(std::move(neg));
        design.add(std::move(col_pos));
        design.add(std::move(col_neg));
        coef_ = least_squares(design, y, &current_rss);
    }

    // Backward pruning under GCV: repeatedly drop the non-intercept term
    // whose removal yields the lowest RSS; keep the best subset seen.
    if (opts_.prune && terms_.size() > 1) {
        std::vector<std::size_t> active(terms_.size());
        for (std::size_t i = 0; i < active.size(); ++i) active[i] = i;

        auto subset_fit = [&](const std::vector<std::size_t>& subset, double* rss) {
            Design d;
            d.n = n;
            for (std::size_t idx : subset) d.add(design.cols[idx]);
            return least_squares(d, y, rss);
        };

        double rss_now = current_rss;
        std::vector<std::size_t> best_subset = active;
        double best_gcv = gcv_score(rss_now, n, active.size(), opts_.penalty);
        double best_subset_rss = rss_now;

        while (active.size() > 1) {
            double iter_best_rss = std::numeric_limits<double>::infinity();
            std::size_t iter_best_pos = 0;
            for (std::size_t drop = 1; drop < active.size(); ++drop) {
                std::vector<std::size_t> trial = active;
                trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(drop));
                double rss = 0.0;
                subset_fit(trial, &rss);
                // Same deterministic tie-breaking as the forward pass.
                if (rss < iter_best_rss * (1.0 - 1e-9)) {
                    iter_best_rss = rss;
                    iter_best_pos = drop;
                }
            }
            active.erase(active.begin() + static_cast<std::ptrdiff_t>(iter_best_pos));
            const double g = gcv_score(iter_best_rss, n, active.size(), opts_.penalty);
            if (g <= best_gcv) {
                best_gcv = g;
                best_subset = active;
                best_subset_rss = iter_best_rss;
            }
        }

        std::vector<BasisTerm> pruned_terms;
        pruned_terms.reserve(best_subset.size());
        for (std::size_t idx : best_subset) pruned_terms.push_back(terms_[idx]);
        terms_ = std::move(pruned_terms);

        Design final_design;
        final_design.n = n;
        for (const BasisTerm& term : terms_) {
            std::vector<double> col(n);
            for (std::size_t r = 0; r < n; ++r) col[r] = term.evaluate(x.row_span(r));
            final_design.add(std::move(col));
        }
        coef_ = least_squares(final_design, y, &current_rss);
        current_rss = best_subset_rss;
        gcv_ = best_gcv;
    } else {
        gcv_ = gcv_score(current_rss, n, terms_.size(), opts_.penalty);
    }

    // Training R^2.
    double y_mean = 0.0;
    for (std::size_t r = 0; r < n; ++r) y_mean += y[r];
    y_mean /= static_cast<double>(n);
    double tss = 0.0;
    for (std::size_t r = 0; r < n; ++r) tss += (y[r] - y_mean) * (y[r] - y_mean);
    r2_ = tss > 0.0 ? 1.0 - current_rss / tss : 1.0;

    span.attr("terms", static_cast<double>(terms_.size()));
    span.attr("r_squared", r2_);
    fitted_ = true;
}

double Mars::predict(std::span<const double> x) const {
    if (!fitted_) throw std::logic_error("Mars: not fitted");
    if (x.size() != input_dim_) throw std::invalid_argument("Mars::predict: dim mismatch");
    double acc = 0.0;
    for (std::size_t m = 0; m < terms_.size(); ++m) acc += coef_[m] * terms_[m].evaluate(x);
    return acc;
}

double Mars::predict(const linalg::Vector& x) const { return predict(x.span()); }

linalg::Vector Mars::predict_batch(const linalg::Matrix& x) const {
    linalg::Vector out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict(x.row_span(r));
    // One basis-function evaluation per (row, term) pair.
    obs::Registry::global().work_add(
        "work.mars.basis_evals",
        static_cast<double>(x.rows()) * static_cast<double>(terms_.size()));
    return out;
}

// --- MarsBank -----------------------------------------------------------------

void MarsBank::fit(const linalg::Matrix& x, const linalg::Matrix& y) {
    if (y.rows() != x.rows()) throw std::invalid_argument("MarsBank::fit: row mismatch");
    if (y.cols() == 0) throw std::invalid_argument("MarsBank::fit: no outputs");
    obs::ScopedSpan span("mars.bank_fit");
    span.attr("outputs", static_cast<double>(y.cols()));
    models_.clear();
    models_.reserve(y.cols());
    for (std::size_t j = 0; j < y.cols(); ++j) {
        Mars model(opts_);
        model.fit(x, y.col(j));
        models_.push_back(std::move(model));
    }
}

linalg::Vector MarsBank::predict(const linalg::Vector& x) const {
    if (models_.empty()) throw std::logic_error("MarsBank: not fitted");
    linalg::Vector out(models_.size());
    for (std::size_t j = 0; j < models_.size(); ++j) out[j] = models_[j].predict(x);
    return out;
}

linalg::Matrix MarsBank::predict_batch(const linalg::Matrix& x) const {
    if (models_.empty()) throw std::logic_error("MarsBank: not fitted");
    linalg::Matrix out(x.rows(), models_.size());
    for (std::size_t j = 0; j < models_.size(); ++j) {
        out.set_col(j, models_[j].predict_batch(x));
    }
    return out;
}

double MarsBank::mean_r_squared() const noexcept {
    if (models_.empty()) return 0.0;
    double r2 = 0.0;
    for (const Mars& m : models_) r2 += m.r_squared();
    return r2 / static_cast<double>(models_.size());
}

}  // namespace htd::ml
