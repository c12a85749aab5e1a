#include "core/active_set.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "amm/any_pool.hpp"
#include "amm/path.hpp"
#include "amm/stable_pool.hpp"

namespace arb::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Newton on a StableSwap segment stops once a step (or the bracket)
/// moves x by less than this, relative: well below the 1e-6 bar the
/// barrier is compared at, where 200 bisection steps left 8.2e-7.
constexpr double kNewtonTolerance = 1e-13;
constexpr int kNewtonMaxSteps = 200;

/// The reference enumeration's bound (2^20 retaining sets).
constexpr std::size_t kEnumerationLimit = 20;

bool positive(double v) { return v > 0.0 && v < kInf; }

bool hop_degenerate(const LoopHopData& hop) {
  if (!positive(hop.price_in) || !positive(hop.price_out) ||
      !(hop.gamma > 0.0 && hop.gamma <= 1.0) || std::isnan(hop.input_cap) ||
      !positive(hop.unit_in) || !positive(hop.unit_out)) {
    return true;
  }
  if (hop.kind == HopKind::kStable) {
    return !positive(hop.stable_d) || !positive(hop.stable_ann) ||
           !positive(hop.stable_x0) || !positive(hop.stable_y0);
  }
  return !positive(hop.reserve_in) || !positive(hop.reserve_out);
}

/// Input at which the hop's kernel output reaches `out` (∞ when it never
/// does): the Möbius inverse x·o/(γ·(y − o)) on (virtual) reserves, and
/// the StableSwap curve read backwards (the invariant is symmetric, so
/// y(·) maps an output-side balance to the input-side one).
double hop_inverse(const LoopHopData& hop, double out) {
  if (!(out > 0.0)) return 0.0;
  if (hop.kind == HopKind::kStable) {
    const double y_after = hop.stable_y0 - out * hop.unit_out / hop.gamma;
    if (!(y_after > 0.0)) return kInf;
    const amm::StableCurve curve{hop.stable_d, hop.stable_ann};
    return std::max(0.0, curve.y(y_after) - hop.stable_x0) / hop.unit_in;
  }
  if (!(out < hop.reserve_out)) return kInf;
  return hop.reserve_in * out / (hop.gamma * (hop.reserve_out - out));
}

/// The hops of the segment that starts at token `a` and spans `len`
/// hops (len = n: the whole loop back to a).
class SegmentView {
 public:
  SegmentView(const std::vector<LoopHopData>& hops, std::size_t a,
              std::size_t len)
      : hops_(hops), a_(a), len_(len) {}

  [[nodiscard]] const LoopHopData& hop(std::size_t m) const {
    return hops_[(a_ + m) % hops_.size()];
  }
  [[nodiscard]] double price_in() const { return hop(0).price_in; }
  [[nodiscard]] double price_out() const { return hop(len_ - 1).price_out; }

  /// Largest segment input that keeps every concentrated hop inside its
  /// range: each hop's input_cap mapped back through the segment prefix.
  /// A cap of 0 (a position pinned at its range edge) gives 0.
  [[nodiscard]] double input_cap() const {
    double cap = kInf;
    for (std::size_t m = 0; m < len_; ++m) {
      if (!(hop(m).input_cap < kInf)) continue;
      double x = std::max(0.0, hop(m).input_cap);
      for (std::size_t k = m; k-- > 0 && x < kInf;) x = hop_inverse(hop(k), x);
      cap = std::min(cap, x);
    }
    return cap;
  }

  [[nodiscard]] bool crosses_stable() const {
    for (std::size_t m = 0; m < len_; ++m) {
      if (hop(m).kind == HopKind::kStable) return true;
    }
    return false;
  }

  /// Möbius composition of the hops' (virtual or osculating-proxy)
  /// reserves; exact for CPMM and concentrated hops. Nullopt when a
  /// proxy is not finite.
  [[nodiscard]] std::optional<amm::MobiusCoefficients> mobius() const {
    amm::MobiusCoefficients g = amm::MobiusCoefficients::identity();
    for (std::size_t m = 0; m < len_; ++m) {
      const LoopHopData& h = hop(m);
      if (!positive(h.reserve_in) || !positive(h.reserve_out)) {
        return std::nullopt;
      }
      g = g.then_hop(h.reserve_in, h.reserve_out, h.gamma);
    }
    return g;
  }

  /// G(x), G'(x) and G''(x) of the composed kernels (chain rule).
  struct Derivs {
    double g = 0.0, g1 = 0.0, g2 = 0.0;
  };
  [[nodiscard]] Derivs derivs(double x) const {
    Derivs r{x, 1.0, 0.0};
    for (std::size_t m = 0; m < len_; ++m) {
      const LoopHopData& h = hop(m);
      const double f1 = h.swap_deriv(r.g);
      r.g2 = h.swap_deriv2(r.g) * r.g1 * r.g1 + f1 * r.g2;
      r.g1 *= f1;
      r.g = h.swap(r.g);
    }
    return r;
  }

  /// Kernel output of the whole segment for input x.
  [[nodiscard]] double evaluate(double x) const {
    for (std::size_t m = 0; m < len_; ++m) x = hop(m).swap(x);
    return x;
  }

 private:
  const std::vector<LoopHopData>& hops_;
  std::size_t a_;
  std::size_t len_;
};

/// Safeguarded Newton on P_b·G'(x) = P_a over [0, cap] for a segment
/// crossing a StableSwap hop. φ'(x) = P_b·G'(x) − P_a is decreasing (G
/// is concave); the bracket [lo, hi] keeps φ'(lo) > 0 ≥ φ'(hi), and a
/// step that leaves it is replaced by bisection (or by doubling while no
/// upper end is known). Starts from the closed-form optimum of the
/// osculating Möbius proxy.
double newton_optimum(const SegmentView& seg, double cap) {
  const double p_in = seg.price_in();
  const double p_out = seg.price_out();
  const auto slope = [&](const SegmentView::Derivs& d) {
    return p_out * d.g1 - p_in;
  };
  if (!(cap > 0.0) || !(slope(seg.derivs(0.0)) > 0.0)) return 0.0;
  if (cap < kInf && slope(seg.derivs(cap)) >= 0.0) return cap;

  double lo = 0.0;
  double hi = cap;
  double x = 0.0;
  if (const auto proxy = seg.mobius()) x = proxy->optimal_input(p_in / p_out);
  if (!(x > lo && x < hi)) {
    const LoopHopData& first = seg.hop(0);
    const double depth = first.kind == HopKind::kStable
                             ? first.stable_x0 / first.unit_in
                             : first.reserve_in;
    x = hi < kInf ? 0.5 * hi : 1e-3 * depth;
  }
  for (int step = 0; step < kNewtonMaxSteps; ++step) {
    const SegmentView::Derivs d = seg.derivs(x);
    const double s = slope(d);
    if (s == 0.0) break;
    (s > 0.0 ? lo : hi) = x;
    double next = x - s / (p_out * d.g2);
    if (!(next > lo && next < hi)) next = hi < kInf ? 0.5 * (lo + hi) : 2.0 * x;
    const bool converged =
        std::abs(next - x) <= kNewtonTolerance * next ||
        (hi < kInf && hi - lo <= kNewtonTolerance * hi);
    x = next;
    if (converged) break;
  }
  return x;
}

/// Solves one segment; nullopt when extreme state (reserves far outside
/// double's comfortable range) leaves its optimum non-finite. A Möbius
/// segment maximizes G(x) − λ·x with λ = P_a/P_b, clamped to the cap;
/// a singleton has λ = 1 exactly, so its optimum is the single-start
/// closed form to the bit.
std::optional<Segment> solve_segment(const SegmentView& seg) {
  const double cap = seg.input_cap();
  Segment out;
  if (seg.crosses_stable()) {
    out.input = newton_optimum(seg, cap);
    if (!(out.input >= 0.0 && out.input < kInf)) return std::nullopt;
    out.output = seg.evaluate(out.input);
  } else {
    const amm::MobiusCoefficients g = *seg.mobius();
    out.input =
        std::min(g.optimal_input(seg.price_in() / seg.price_out()), cap);
    if (!(out.input >= 0.0 && out.input < kInf)) return std::nullopt;
    out.output = g.evaluate(out.input);
  }
  out.capped = out.input > 0.0 && out.input == cap;
  out.value = seg.price_out() * out.output - seg.price_in() * out.input;
  if (!std::isfinite(out.value)) return std::nullopt;
  return out;
}

/// Hops from `a` to the next retaining token after it (n when `a` is
/// the only one).
std::size_t span_to_next(std::uint32_t mask, std::size_t a, std::size_t n) {
  for (std::size_t len = 1; len < n; ++len) {
    if ((mask >> ((a + len) % n)) & 1U) return len;
  }
  return n;
}

/// Best feasible retaining set: every segment at its own optimum and
/// every retaining token keeping out_in − in_out ≥ 0. 0 (the zero
/// trade) when no candidate has positive value.
std::uint32_t enumerate(SegmentTable& table, std::size_t n) {
  std::uint32_t best_mask = 0;
  double best_value = 0.0;
  std::array<std::size_t, kEnumerationLimit> tokens{};
  std::array<const Segment*, kEnumerationLimit> segs{};
  const std::uint32_t end = std::uint32_t{1} << n;
  for (std::uint32_t mask = 1; mask < end; ++mask) {
    std::size_t k = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if ((mask >> j) & 1U) tokens[k++] = j;
    }
    double value = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t len = (tokens[(i + 1) % k] + n - tokens[i]) % n;
      segs[i] = &table.at(tokens[i], len == 0 ? n : len);
      value += segs[i]->value;
    }
    if (!(value > best_value)) continue;
    bool feasible = true;
    for (std::size_t i = 0; i < k && feasible; ++i) {
      feasible = segs[i]->output >= segs[(i + 1) % k]->input;
    }
    if (feasible) {
      best_value = value;
      best_mask = mask;
    }
  }
  return best_mask;
}

/// KKT certificate of the singleton trade from `s` with input x: walk
/// the tight chain with shadow prices q_s = P_s, q_{j+1} = q_j/F_j'(d_j);
/// eq. (8)'s multipliers are q_j − P_j, so q_j ≥ P_j everywhere proves
/// the trade optimal. A capped or zero trade is not certified (its
/// chain does not close on stationarity).
bool certify(SegmentTable& table, std::size_t s) {
  const Segment& trade = table.rotation(s);
  if (!(trade.input > 0.0) || trade.capped) return false;
  const std::vector<LoopHopData>& hops = table.hops();
  const std::size_t n = hops.size();
  double q = hops[s].price_in;
  double d = trade.input;
  for (std::size_t m = 0; m + 1 < n; ++m) {
    const LoopHopData& hop = hops[(s + m) % n];
    q /= hop.swap_deriv(d);
    d = hop.swap(d);
    if (!(q >= hop.price_out)) return false;
  }
  return true;
}

double honest_output(const LoopHopData& hop, double d,
                     const graph::TokenGraph* graph) {
  if (graph != nullptr && hop.kind != HopKind::kCpmm) {
    return graph->pool(hop.pool).quote(hop.token_in, d).amount_out;
  }
  return hop.swap(d);
}

/// Per-hop amounts of a retaining set. Each segment starts at its
/// optimal input and forwards every hop's output as the next input, so
/// tight tokens retain exactly 0. The walk starts at the retaining token
/// with the largest relative retention; every later segment's input is
/// capped by what arrives, so quote rounding cannot leave a retaining
/// token short.
ActiveSetSolution realize(SegmentTable& table, std::uint32_t mask,
                          const graph::TokenGraph* graph) {
  const std::vector<LoopHopData>& hops = table.hops();
  const std::size_t n = hops.size();
  ActiveSetSolution sol;
  sol.inputs.assign(n, 0.0);
  sol.outputs.assign(n, 0.0);
  sol.retaining = mask;
  if (mask == 0) return sol;

  std::size_t start = n;
  double widest = -kInf;
  for (std::size_t a = 0; a < n; ++a) {
    if (((mask >> a) & 1U) == 0) continue;
    const std::size_t len = span_to_next(mask, a, n);
    const std::size_t b = (a + len) % n;
    const Segment& in = table.at(a, len);
    const Segment& out = table.at(b, span_to_next(mask, b, n));
    const double slack =
        (in.output - out.input) / std::max(in.output, 1e-300);
    if (slack > widest) {
      widest = slack;
      start = b;
    }
  }

  std::size_t a = start;
  double arriving = kInf;
  do {
    const std::size_t len = span_to_next(mask, a, n);
    double d = std::min(table.at(a, len).input, arriving);
    for (std::size_t m = 0; m < len; ++m) {
      const std::size_t k = (a + m) % n;
      sol.inputs[k] = d;
      sol.outputs[k] = d > 0.0 ? honest_output(hops[k], d, graph) : 0.0;
      d = sol.outputs[k];
    }
    arriving = d;
    a = (a + len) % n;
  } while (a != start);

  for (std::size_t j = 0; j < n; ++j) {
    sol.profit_usd +=
        hops[j].price_in * (sol.outputs[(j + n - 1) % n] - sol.inputs[j]);
  }
  return sol;
}

}  // namespace

SegmentTable::SegmentTable(std::vector<LoopHopData> hops)
    : hops_(std::move(hops)),
      n_(hops_.size()),
      degenerate_(n_ < 2 ||
                  std::any_of(hops_.begin(), hops_.end(), hop_degenerate)),
      table_(n_ * n_),
      solved_(n_ * n_, 0) {}

const Segment& SegmentTable::at(std::size_t a, std::size_t len) {
  const std::size_t i = a * n_ + (len - 1);
  if (solved_[i] == 0) {
    const auto solved = solve_segment(SegmentView(hops_, a, len));
    broken_ |= !solved.has_value();
    table_[i] = solved.value_or(Segment{});
    solved_[i] = 1;
  }
  return table_[i];
}

std::optional<ActiveSetSolution> solve_active_set(
    SegmentTable& table, const graph::TokenGraph* graph) {
  if (table.degenerate()) return std::nullopt;
  const std::size_t n = table.size();

  // The singletons are the Traditional trades; the best one is MaxMax.
  std::size_t best = 0;
  for (std::size_t s = 1; s < n; ++s) {
    if (table.rotation(s).value > table.rotation(best).value) best = s;
  }
  if (table.broken()) return std::nullopt;
  if (certify(table, best)) {
    ActiveSetSolution sol = realize(table, std::uint32_t{1} << best, graph);
    sol.certified = true;
    return sol;
  }
  if (n > kActiveSetMaxEnumerated) return std::nullopt;
  const std::uint32_t mask = enumerate(table, n);
  if (table.broken()) return std::nullopt;
  return realize(table, mask, graph);
}

std::optional<ActiveSetSolution> enumerate_active_set(
    SegmentTable& table, const graph::TokenGraph* graph) {
  if (table.degenerate() || table.size() > kEnumerationLimit) {
    return std::nullopt;
  }
  const std::uint32_t mask = enumerate(table, table.size());
  if (table.broken()) return std::nullopt;
  return realize(table, mask, graph);
}

}  // namespace arb::core
