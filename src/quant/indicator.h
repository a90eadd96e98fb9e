// Layer quantization-sensitivity indicators (paper Sec. IV-B).
//
// Three interchangeable ways of scoring "how much does quantizing layer i
// to bitwidth b hurt model quality":
//
//  1. SplitQuant's *variance indicator* (Theorem 1 / Proposition 1):
//       omega_{i,b} = sum_o D_{W_o} * S_{W_o}(b)^2 * G(X_o)
//     where G(X) = Var[X]/4, Proposition 1's form for round-to-nearest
//     (the one rounding the quantizer implements; its stochastic-rounding
//     form is not computed).  Needs only elementwise statistics —
//     O(D_W + D_X).
//  2. The HAWQ-style *Hessian indicator*: lambda_max(H) * ||Q(W) - W||^2
//     with H = 2 X X^T the Hessian of the MSE objective (1) w.r.t. each
//     weight row — O(D_W * D_X^2) because of the Gram matrix and power
//     iteration, which is exactly the overhead gap Table V reports.
//  3. A *random indicator* baseline (uniform draws, forced monotone in
//     bitwidth) used as the control in Table V.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "quant/quantizer.h"
#include "tensor/tensor.h"

namespace sq::quant {

/// Statistics of one linear operator (one weight matrix + its calibration
/// input) sufficient to evaluate the variance indicator at any bitwidth.
struct OperatorStats {
  std::uint64_t weight_dim = 0;  ///< D_W: number of weight elements.
  float w_min = 0.0f;            ///< Smallest weight value.
  float w_max = 0.0f;            ///< Largest weight value.
  double x_mean = 0.0;           ///< E[X] over calibration inputs.
  double x_var = 0.0;            ///< Var[X] over calibration inputs.
};

/// Extract OperatorStats from a real weight matrix and calibration
/// activations (any shape; statistics are elementwise).
OperatorStats operator_stats(const sq::tensor::Tensor& weights,
                             const sq::tensor::Tensor& activations);

/// G(X) of Proposition 1 for round-to-nearest: Var[X] / 4.
double g_of_x(const OperatorStats& s);

/// Variance indicator of one operator at bitwidth `b` (Proposition 1 term).
double operator_variance_indicator(const OperatorStats& s, Bitwidth b);

/// Variance indicator of a whole decoder layer: sum over its operators.
double layer_variance_indicator(std::span<const OperatorStats> ops, Bitwidth b);

/// Result of a Hessian sensitivity probe for one operator.
struct HessianProbe {
  double lambda_max = 0.0;  ///< Top eigenvalue of 2 X X^T.
  int iterations = 0;       ///< Power iterations performed.
};

/// Estimate the top eigenvalue of H = 2 X X^T by power iteration.
/// `activations` is [samples x features]; the Gram matrix is
/// [features x features].  Deterministic given `seed`.
HessianProbe hessian_top_eigenvalue(const sq::tensor::Tensor& activations,
                                    int max_iters = 64, double tol = 1e-6,
                                    std::uint64_t seed = 7);

/// HAWQ-style indicator: lambda_max * ||Q(W) - W||^2 at bitwidth `b`.
double hessian_indicator(const sq::tensor::Tensor& weights,
                         const sq::tensor::Tensor& activations, Bitwidth b,
                         std::uint64_t seed = 7);

/// Table of indicator values for every (layer, bitwidth) pair.
/// values[layer][k] corresponds to bitwidths[k].
struct IndicatorTable {
  std::vector<Bitwidth> bitwidths;
  std::vector<std::vector<double>> values;  ///< [layer][bitwidth index].

  /// Indicator value for (layer, bitwidth); throws if absent.
  double at(std::size_t layer, Bitwidth b) const;
};

/// Random-indicator control of Table V: uniform draws per (layer, bit),
/// re-sorted within each layer so that wider bitwidths never score worse
/// than narrower ones (the paper forces the same monotonicity).
IndicatorTable random_indicator_table(std::size_t n_layers,
                                      std::span<const Bitwidth> bitwidths,
                                      std::uint64_t seed);

}  // namespace sq::quant
