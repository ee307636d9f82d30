#include "oracles/reference_pack.h"

#include <algorithm>

namespace helcfl::tensor::detail {

float reference_op_b(const GemmArgs& g, std::size_t kk, std::size_t j) {
  if (g.b_view == nullptr) return g.trans_b ? g.b[j * g.k + kk] : g.b[kk * g.n + j];
  const Im2colView& v = *g.b_view;
  // Panel element (r, c): r = (ic, ky, kx) indexes rows, c = (s, y, x) columns.
  const std::size_t r = g.trans_b ? j : kk;
  const std::size_t c = g.trans_b ? kk : j;
  const std::size_t kx = r % v.kernel, ky = r / v.kernel % v.kernel;
  const std::size_t ic = r / (v.kernel * v.kernel);
  const std::size_t x = c % v.w_out, y = c / v.w_out % v.h_out;
  const std::size_t s = c / (v.w_out * v.h_out);
  return v.image[s * v.sample_stride + ic * v.hp * v.wp + (y * v.stride + ky) * v.wp +
                 x * v.stride + kx];
}

std::vector<float> reference_pack_b(const GemmArgs& g, std::size_t nr, std::size_t kc) {
  const std::size_t panels = (g.n + nr - 1) / nr;
  const std::size_t seg = g.k_segment == 0 ? g.k : g.k_segment;
  std::vector<float> out(panels * nr * g.k, 0.0F);
  for (std::size_t kb = 0; kb < g.k;) {
    const std::size_t len = std::min({kc, g.k - kb, seg - kb % seg});
    for (std::size_t panel = 0; panel < panels; ++panel) {
      for (std::size_t p = 0; p < len; ++p) {
        for (std::size_t jj = 0; jj < nr; ++jj) {
          const std::size_t j = panel * nr + jj;
          if (j < g.n) {
            out[panels * nr * kb + panel * len * nr + p * nr + jj] =
                reference_op_b(g, kb + p, j);
          }
        }
      }
    }
    kb += len;
  }
  return out;
}

}  // namespace helcfl::tensor::detail
