// SSE4.2 backend: 2 double lanes per step. Compiled with -msse4.2 but
// WITHOUT -mfma — byte-identity with the scalar reference depends on
// a*b+c staying a rounded multiply followed by a rounded add, and the
// compiler cannot contract what the ISA it was given cannot encode.
// Every kernel mirrors the scalar reference's per-element operation
// order exactly (lanes are pixels for the pointwise maps; reductions
// accumulate per-pixel vectors in pixel order), and falls back to the
// scalar segment helpers for the sub-width tail of any range, so odd
// widths and unaligned column starts need no masked loads.

#include <immintrin.h>

#include "kernels.hpp"

namespace colorbars::simd::detail {

namespace {

/// One 8-bit channel code's share of a pixel: its white-normalized XYZ
/// contribution and its encoded value code/255.0, so a pixel's XYZ and
/// encoded RGB come from two aligned 128-bit loads per channel.
struct alignas(32) ChannelRecord {
  double x, y, z, encoded;
};

/// One CIE f() interval: the sample f[i] and the step f[i+1] - f[i], so
/// a lookup is one 128-bit load.
struct alignas(16) LabFStep {
  double value, delta;
};

/// The row reduction's tables, copied bit-for-bit from the scalar
/// chain's (color::rgb8_lab_contributions, lab_f_table_values). The
/// delta is the same IEEE subtraction lab_f_fast performs per call, so
/// value + delta * fraction reproduces its lerp exactly.
struct RowLabTables {
  ChannelRecord channel[3][256];
  LabFStep lab_f[color::kLabFTableSamples - 1];
};

const RowLabTables& row_lab_tables() noexcept {
  static const RowLabTables tables = [] {
    RowLabTables t;
    const auto& contributions = color::rgb8_lab_contributions();
    for (std::size_t channel = 0; channel < 3; ++channel) {
      for (std::size_t code = 0; code < 256; ++code) {
        const util::Vec3& v = contributions[channel][code];
        // code / 255.0 is from_rgb8's exact division.
        t.channel[channel][code] = {v.x, v.y, v.z, static_cast<double>(code) / 255.0};
      }
    }
    const auto& f = color::lab_f_table_values();
    for (std::size_t i = 0; i + 1 < f.size(); ++i) t.lab_f[i] = {f[i], f[i + 1] - f[i]};
    return t;
  }();
  return tables;
}

void demosaic_interior_sse42(const double* raw, int rows, int columns,
                             double* rgb_out) {
  // Multiplying by 0.25 / 0.5 is bit-identical to the reference's
  // division by 4.0 / 2.0 (power-of-two reciprocals are exact) and
  // avoids the non-pipelined divider. The neighbor sums keep the
  // reference's order: ((up + left) + right) + down for the plus
  // pattern, ((ul + ur) + dl) + dr for the diagonals.
  if (rows <= 2 || columns <= 2) return;
  const __m128d quarter = _mm_set1_pd(0.25);
  const __m128d half = _mm_set1_pd(0.5);
  for (int r = 1; r + 1 < rows; ++r) {
    const double* up =
        raw + static_cast<std::size_t>(r - 1) * static_cast<std::size_t>(columns);
    const double* mid = up + columns;
    const double* down = mid + columns;
    const bool even_row = (r % 2) == 0;
    double* out_row = rgb_out + static_cast<std::size_t>(r) *
                                    static_cast<std::size_t>(columns) * 3;
    int c = 1;
    for (; c + 1 <= columns - 2; c += 2) {
      const __m128d up_l = _mm_loadu_pd(up + c - 1);
      const __m128d up_m = _mm_loadu_pd(up + c);
      const __m128d up_r = _mm_loadu_pd(up + c + 1);
      const __m128d mid_l = _mm_loadu_pd(mid + c - 1);
      const __m128d own = _mm_loadu_pd(mid + c);
      const __m128d mid_r = _mm_loadu_pd(mid + c + 1);
      const __m128d down_l = _mm_loadu_pd(down + c - 1);
      const __m128d down_m = _mm_loadu_pd(down + c);
      const __m128d down_r = _mm_loadu_pd(down + c + 1);

      const __m128d g4 = _mm_mul_pd(
          _mm_add_pd(_mm_add_pd(_mm_add_pd(up_m, mid_l), mid_r), down_m), quarter);
      const __m128d diag4 = _mm_mul_pd(
          _mm_add_pd(_mm_add_pd(_mm_add_pd(up_l, up_r), down_l), down_r), quarter);
      const __m128d horiz2 = _mm_mul_pd(_mm_add_pd(mid_l, mid_r), half);
      const __m128d vert2 = _mm_mul_pd(_mm_add_pd(up_m, down_m), half);

      // c starts odd and steps by 2: lane 0 odd column, lane 1 even.
      __m128d x, y, z;
      if (even_row) {
        x = _mm_blend_pd(horiz2, own, 0b10);
        y = _mm_blend_pd(own, g4, 0b10);
        z = _mm_blend_pd(vert2, diag4, 0b10);
      } else {
        x = _mm_blend_pd(diag4, vert2, 0b10);
        y = _mm_blend_pd(g4, own, 0b10);
        z = _mm_blend_pd(own, horiz2, 0b10);
      }

      double* out = out_row + static_cast<std::size_t>(c) * 3;
      _mm_storeu_pd(out, _mm_unpacklo_pd(x, y));          // x0 y0
      _mm_storeu_pd(out + 2, _mm_shuffle_pd(z, x, 0b10)); // z0 x1
      _mm_storeu_pd(out + 4, _mm_unpackhi_pd(y, z));      // y1 z1
    }
    if (c < columns - 1) demosaic_row_segment(raw, columns, r, c, columns - 1, rgb_out);
  }
}

void quantize_srgb_span_sse42(const double* linear, std::size_t count,
                              std::uint8_t* codes) {
  // color::quantize_srgb_channel on two values per step: clamp, bucket
  // floor, then one compare against the floor code's boundary adds 0/1.
  // max(x, 0) returns its second operand for a NaN x, so NaN lands on 0
  // exactly as the scalar `x > 0 ? x : 0` does; x * 4096 is exact, so
  // the truncation picks the scalar's bucket.
  const double* boundaries = color::srgb_code_boundaries().data();
  const std::uint8_t* bucket_floor = color::srgb_bucket_floor().data();
  const __m128d zero = _mm_setzero_pd();
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d buckets = _mm_set1_pd(static_cast<double>(color::kSrgbQuantBuckets));
  std::size_t i = 0;
  for (; i + 1 < count; i += 2) {
    const __m128d x = _mm_min_pd(_mm_max_pd(_mm_loadu_pd(linear + i), zero), one);
    const __m128i bucket = _mm_cvttpd_epi32(_mm_mul_pd(x, buckets));
    const int code0 = bucket_floor[_mm_cvtsi128_si32(bucket)];
    const int code1 = bucket_floor[_mm_extract_epi32(bucket, 1)];
    const int above =
        _mm_movemask_pd(_mm_cmple_pd(_mm_set_pd(boundaries[code1], boundaries[code0]), x));
    codes[i] = static_cast<std::uint8_t>(code0 + (above & 1));
    codes[i + 1] = static_cast<std::uint8_t>(code1 + (above >> 1));
  }
  quantize_srgb_segment(linear + i, count - i, codes + i);
}

/// lab_f_fast over 2 lanes. A lane inside [0, 1) interpolates from
/// its interval's step; a pair with a lane outside [0, 1] or at the top
/// sample t == 1 takes the scalar function for both lanes (of all 2^24
/// pixels only white does: X/Xn just above 1, Y/Yn exactly 1).
inline __m128d lab_f_fast_2(__m128d t, const LabFStep* steps) {
  const __m128d in_table = _mm_and_pd(_mm_cmpge_pd(t, _mm_setzero_pd()),
                                      _mm_cmplt_pd(t, _mm_set1_pd(1.0)));
  if (_mm_movemask_pd(in_table) != 0b11) [[unlikely]] {
    alignas(16) double lanes[2];
    _mm_store_pd(lanes, t);
    return _mm_set_pd(color::lab_f_fast(lanes[1]), color::lab_f_fast(lanes[0]));
  }
  const __m128d scaled =
      _mm_mul_pd(t, _mm_set1_pd(static_cast<double>(color::kLabFTableSamples - 1)));
  const __m128i index = _mm_cvttpd_epi32(scaled);
  const __m128d step0 = _mm_load_pd(&steps[_mm_cvtsi128_si32(index)].value);
  const __m128d step1 = _mm_load_pd(&steps[_mm_extract_epi32(index, 1)].value);
  const __m128d fraction = _mm_sub_pd(scaled, _mm_cvtepi32_pd(index));
  return _mm_add_pd(_mm_unpacklo_pd(step0, step1),
                    _mm_mul_pd(_mm_unpackhi_pd(step0, step1), fraction));
}

/// One pixel's white-normalized XYZ as [x, y] and [z, *], summed
/// (red + green) + blue like the scalar chain, plus the three channel
/// records' [z, encoded] halves for the encoded-RGB sums.
struct PixelXyz {
  __m128d xy, z, red_ze, green_ze, blue_ze;
};

inline PixelXyz pixel_xyz(const RowLabTables& tables, color::Rgb8 pixel) {
  const double* red = &tables.channel[0][pixel.r].x;
  const double* green = &tables.channel[1][pixel.g].x;
  const double* blue = &tables.channel[2][pixel.b].x;
  PixelXyz p;
  p.red_ze = _mm_load_pd(red + 2);
  p.green_ze = _mm_load_pd(green + 2);
  p.blue_ze = _mm_load_pd(blue + 2);
  p.xy = _mm_add_pd(_mm_add_pd(_mm_load_pd(red), _mm_load_pd(green)), _mm_load_pd(blue));
  p.z = _mm_add_pd(_mm_add_pd(p.red_ze, p.green_ze), p.blue_ze);
  return p;
}

void row_lab_rgb_sums_sse42(const color::Rgb8* pixels, int count, RowSums& sums) {
  const RowLabTables& tables = row_lab_tables();
  // Accumulator pairs [L, a], [b, r], [g, b8]; one pixel's pair is added
  // at a time, keeping every component's additions in pixel order.
  __m128d acc_la = _mm_set_pd(sums.a, sums.l);
  __m128d acc_br = _mm_set_pd(sums.r, sums.b);
  __m128d acc_gb = _mm_set_pd(sums.bb, sums.g);
  const __m128d c116 = _mm_set1_pd(116.0);
  const __m128d c16 = _mm_set1_pd(16.0);
  const __m128d c500 = _mm_set1_pd(500.0);
  const __m128d c200 = _mm_set1_pd(200.0);
  int i = 0;
  for (; i + 1 < count; i += 2) {
    const PixelXyz p0 = pixel_xyz(tables, pixels[i]);
    const PixelXyz p1 = pixel_xyz(tables, pixels[i + 1]);

    // Lanes are pixels from here on: [pixel 0, pixel 1].
    const __m128d fx = lab_f_fast_2(_mm_unpacklo_pd(p0.xy, p1.xy), tables.lab_f);
    const __m128d fy = lab_f_fast_2(_mm_unpackhi_pd(p0.xy, p1.xy), tables.lab_f);
    const __m128d fz = lab_f_fast_2(_mm_unpacklo_pd(p0.z, p1.z), tables.lab_f);
    const __m128d labL = _mm_sub_pd(_mm_mul_pd(c116, fy), c16);
    const __m128d labA = _mm_mul_pd(c500, _mm_sub_pd(fx, fy));
    const __m128d labB = _mm_mul_pd(c200, _mm_sub_pd(fy, fz));

    // Pixel 0's [L, a], [b, r], [g, b8], then pixel 1's.
    acc_la = _mm_add_pd(acc_la, _mm_unpacklo_pd(labL, labA));
    acc_br = _mm_add_pd(acc_br, _mm_blend_pd(labB, p0.red_ze, 0b10));
    acc_gb = _mm_add_pd(acc_gb, _mm_unpackhi_pd(p0.green_ze, p0.blue_ze));
    acc_la = _mm_add_pd(acc_la, _mm_unpackhi_pd(labL, labA));
    acc_br = _mm_add_pd(acc_br, _mm_shuffle_pd(labB, p1.red_ze, 0b11));
    acc_gb = _mm_add_pd(acc_gb, _mm_unpackhi_pd(p1.green_ze, p1.blue_ze));
  }
  alignas(16) double la[2];
  alignas(16) double br[2];
  alignas(16) double gb[2];
  _mm_store_pd(la, acc_la);
  _mm_store_pd(br, acc_br);
  _mm_store_pd(gb, acc_gb);
  sums.l = la[0];
  sums.a = la[1];
  sums.b = br[0];
  sums.r = br[1];
  sums.g = gb[0];
  sums.bb = gb[1];
  if (i < count) row_lab_rgb_sums_segment(pixels + i, count - i, sums);
}

void vignette_signal_sse42(const double* col2, int column_begin, int column_end,
                           double row2, double strength, double value_even,
                           double value_odd, double* out_row) {
  const __m128d vals = (column_begin % 2) == 0 ? _mm_set_pd(value_odd, value_even)
                                               : _mm_set_pd(value_even, value_odd);
  int c = column_begin;
  if (strength > 0.0) {
    const __m128d r2 = _mm_set1_pd(row2);
    const __m128d half = _mm_set1_pd(0.5);
    const __m128d s = _mm_set1_pd(strength);
    const __m128d one = _mm_set1_pd(1.0);
    const __m128d zero = _mm_setzero_pd();
    for (; c + 1 < column_end; c += 2) {
      const __m128d radial2 = _mm_mul_pd(half, _mm_add_pd(r2, _mm_loadu_pd(col2 + c)));
      const __m128d gain = _mm_max_pd(_mm_sub_pd(one, _mm_mul_pd(s, radial2)), zero);
      _mm_storeu_pd(out_row + c, _mm_mul_pd(vals, gain));
    }
  } else {
    for (; c + 1 < column_end; c += 2) _mm_storeu_pd(out_row + c, vals);
  }
  vignette_signal_segment(col2, c, column_end, row2, strength, value_even, value_odd,
                          out_row);
}

void shot_sigma_sse42(const double* signal, int count, double iso_gain,
                      double well_capacity, double* out) {
  const __m128d zero = _mm_setzero_pd();
  const __m128d gain = _mm_set1_pd(iso_gain);
  const __m128d well = _mm_set1_pd(well_capacity);
  int i = 0;
  for (; i + 1 < count; i += 2) {
    const __m128d s = _mm_max_pd(_mm_loadu_pd(signal + i), zero);
    _mm_storeu_pd(out + i, _mm_sqrt_pd(_mm_div_pd(_mm_mul_pd(s, gain), well)));
  }
  shot_sigma_segment(signal + i, count - i, iso_gain, well_capacity, out + i);
}

void delta_e_ab_sse42(const double* ref_a, const double* ref_b, int count, double a,
                      double b, double* out) {
  const __m128d av = _mm_set1_pd(a);
  const __m128d bv = _mm_set1_pd(b);
  int i = 0;
  for (; i + 1 < count; i += 2) {
    const __m128d da = _mm_sub_pd(av, _mm_loadu_pd(ref_a + i));
    const __m128d db = _mm_sub_pd(bv, _mm_loadu_pd(ref_b + i));
    _mm_storeu_pd(out + i,
                  _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(da, da), _mm_mul_pd(db, db))));
  }
  delta_e_ab_segment(ref_a + i, ref_b + i, count - i, a, b, out + i);
}

}  // namespace

const KernelTable kSse42Kernels = {
    demosaic_interior_sse42, quantize_srgb_span_sse42, row_lab_rgb_sums_sse42,
    vignette_signal_sse42,   shot_sigma_sse42,         delta_e_ab_sse42,
};

}  // namespace colorbars::simd::detail
