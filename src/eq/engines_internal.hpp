#pragma once

// Implementation-internal pieces shared by engine.cpp (the seam + the
// nearest-reference engine) and equalizer.cpp (the equalized engine).
// Not installed; include only from src/eq/.

#include <optional>
#include <span>
#include <vector>

#include "colorbars/eq/engine.hpp"

namespace colorbars::eq::detail {

/// The pre-seam receiver's nearest-reference scan, verbatim: SIMD batch
/// over the learned references in the CIELab (a,b) space, per-reference
/// metric loop otherwise. Returns the winning constellation index and
/// (optionally) the second-minus-best margin, -1 when fewer than two
/// references were comparable.
[[nodiscard]] int classify_nearest_store(const rx::CalibrationStore& store,
                                         const rx::SlotObservation& observation,
                                         double* margin_out);

/// Nearest match of a chroma against an explicit reference list (the
/// equalized engine's deconvolved constellation), through the same
/// dispatched ΔE(ab) kernel and the same ascending best/second scan.
[[nodiscard]] int classify_against_refs(std::span<const color::ChromaAB> references,
                                        const color::ChromaAB& chroma,
                                        double* margin_out);

/// Solves the dense system `matrix * X = rhs` in place by Gaussian
/// elimination with partial pivoting; `matrix` is n×n row-major and
/// `rhs` n×cols row-major (cols right-hand sides share one
/// factorization — the a/b chroma components). Returns false (leaving
/// rhs unspecified) when a pivot falls under `pivot_floor` — the
/// ill-conditioning signal the training guard keys on.
[[nodiscard]] bool solve_dense(std::vector<double>& matrix, std::vector<double>& rhs,
                               int n, int cols, double pivot_floor);

std::unique_ptr<DecisionEngine> make_nearest_engine(const EngineConfig& config);
std::unique_ptr<DecisionEngine> make_equalized_engine(const EngineConfig& config);

}  // namespace colorbars::eq::detail
