#pragma once

// Internal plumbing of colorbars::simd: the per-backend kernel tables
// the dispatcher selects between, and the scalar reference loops every
// backend reuses as its tail (and NEON as its demosaic and row
// reduction).
//
// The scalar helpers are defined in an anonymous namespace on purpose:
// each backend TU is compiled with its own ISA flags, and internal
// linkage guarantees the linker can never substitute (say) the
// SSE4.2-compiled copy of a tail into the scalar backend that a CPU
// without SSE4.2 runs. The duplication is a few hundred bytes per TU.

#include <cmath>

#include "colorbars/color/lut.hpp"
#include "colorbars/simd/simd.hpp"

namespace colorbars::simd::detail {

struct KernelTable {
  void (*demosaic_interior)(const double* raw, int rows, int columns, double* rgb_out);
  void (*quantize_srgb_span)(const double* linear, std::size_t count, std::uint8_t* codes);
  void (*row_lab_rgb_sums)(const color::Rgb8* pixels, int count, RowSums& sums);
  void (*vignette_signal_span)(const double* col2, int column_begin, int column_end,
                               double row2, double strength, double value_even,
                               double value_odd, double* out_row);
  void (*shot_sigma_row)(const double* signal, int count, double iso_gain,
                         double well_capacity, double* out);
  void (*delta_e_ab_many)(const double* ref_a, const double* ref_b, int count,
                          double a, double b, double* out);
};

extern const KernelTable kScalarKernels;
#if defined(COLORBARS_SIMD_X86)
extern const KernelTable kSse42Kernels;
#endif
#if defined(COLORBARS_SIMD_NEON)
extern const KernelTable kNeonKernels;
#endif

namespace {

/// Scalar reference of one demosaic row segment [c_begin, c_end) —
/// verbatim the interior fast path of camera::demosaic_into (same
/// accumulation order, same divisions), writing three doubles per pixel.
[[maybe_unused]] void demosaic_row_segment(const double* raw, int columns, int r,
                                           int c_begin, int c_end, double* rgb_out) {
  const double* up = raw + static_cast<std::size_t>(r - 1) * static_cast<std::size_t>(columns);
  const double* mid = up + columns;
  const double* down = mid + columns;
  const bool even_row = (r % 2) == 0;
  double* out = rgb_out + (static_cast<std::size_t>(r) * static_cast<std::size_t>(columns) +
                           static_cast<std::size_t>(c_begin)) * 3;
  for (int c = c_begin; c < c_end; ++c, out += 3) {
    const double own = mid[c];
    const bool even_col = (c % 2) == 0;
    if (even_row && even_col) {  // red site
      double green = up[c];
      green += mid[c - 1];
      green += mid[c + 1];
      green += down[c];
      double blue = up[c - 1];
      blue += up[c + 1];
      blue += down[c - 1];
      blue += down[c + 1];
      out[0] = own;
      out[1] = green / 4;
      out[2] = blue / 4;
    } else if (!even_row && !even_col) {  // blue site
      double red = up[c - 1];
      red += up[c + 1];
      red += down[c - 1];
      red += down[c + 1];
      double green = up[c];
      green += mid[c - 1];
      green += mid[c + 1];
      green += down[c];
      out[0] = red / 4;
      out[1] = green / 4;
      out[2] = own;
    } else if (even_row) {  // green site between reds horizontally
      double red = mid[c - 1];
      red += mid[c + 1];
      double blue = up[c];
      blue += down[c];
      out[0] = red / 2;
      out[1] = own;
      out[2] = blue / 2;
    } else {  // green site between reds vertically
      double red = up[c];
      red += down[c];
      double blue = mid[c - 1];
      blue += mid[c + 1];
      out[0] = red / 2;
      out[1] = own;
      out[2] = blue / 2;
    }
  }
}

/// Scalar reference of the sRGB write-out: the fused one-compare
/// quantizer per channel value.
[[maybe_unused]] void quantize_srgb_segment(const double* linear, std::size_t count,
                                            std::uint8_t* codes) {
  for (std::size_t i = 0; i < count; ++i) codes[i] = color::quantize_srgb_channel(linear[i]);
}

/// Scalar reference of the scanline reduction inner loop — verbatim the
/// body of reduce_to_scanlines (fast Lab chain + from_rgb8), pixel
/// order preserved.
[[maybe_unused]] void row_lab_rgb_sums_segment(const color::Rgb8* pixels, int count,
                                               RowSums& sums) {
  for (int i = 0; i < count; ++i) {
    const color::Rgb8& pixel = pixels[i];
    const color::Lab lab = color::rgb8_to_lab_fast(pixel);
    sums.l += lab.L;
    sums.a += lab.a;
    sums.b += lab.b;
    const util::Vec3 rgb = color::from_rgb8(pixel);
    sums.r += rgb.x;
    sums.g += rgb.y;
    sums.bb += rgb.z;
  }
}

/// Scalar reference of the vignette row fill — verbatim
/// vignette_gain(r, c) followed by signal *= gain.
[[maybe_unused]] void vignette_signal_segment(const double* col2, int c_begin, int c_end,
                                              double row2, double strength,
                                              double value_even, double value_odd,
                                              double* out_row) {
  for (int c = c_begin; c < c_end; ++c) {
    double signal = (c % 2) == 0 ? value_even : value_odd;
    if (strength > 0.0) {
      const double radial2 = 0.5 * (row2 + col2[c]);
      signal *= std::max(1.0 - strength * radial2, 0.0);
    }
    out_row[c] = signal;
  }
}

/// Scalar reference of the shot-noise sigma — verbatim the
/// mosaic_and_encode expression.
[[maybe_unused]] void shot_sigma_segment(const double* signal, int count, double iso_gain,
                                         double well_capacity, double* out) {
  for (int i = 0; i < count; ++i) {
    out[i] = std::sqrt(std::max(signal[i], 0.0) * iso_gain / well_capacity);
  }
}

/// Scalar reference of the chroma-plane ΔE fan-out — verbatim
/// color::delta_e_ab against each reference.
[[maybe_unused]] void delta_e_ab_segment(const double* ref_a, const double* ref_b,
                                         int count, double a, double b, double* out) {
  for (int i = 0; i < count; ++i) {
    const double da = a - ref_a[i];
    const double db = b - ref_b[i];
    out[i] = std::sqrt(da * da + db * db);
  }
}

}  // namespace

}  // namespace colorbars::simd::detail
