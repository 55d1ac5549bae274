#include "solver/greedy_elimination.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "parallel/primitives.h"
#include "parallel/rng.h"
#include "util/serialize.h"

namespace parsdd {

namespace {
constexpr std::uint32_t kGone = std::numeric_limits<std::uint32_t>::max();
}

GreedyEliminationResult greedy_eliminate(std::uint32_t n,
                                         const EdgeList& edges,
                                         std::uint64_t seed) {
  GreedyEliminationResult out;
  // Mutable multigraph adjacency.  Entries referencing eliminated vertices
  // are cleaned lazily when a vertex becomes an elimination candidate.
  // Built in parallel: count/scan/scatter into flat arc arrays, then sort
  // each vertex's slice by edge id so every adj[v] lists arcs in input-edge
  // order — exactly what the old sequential push_back loop produced — at
  // any pool size.
  std::vector<std::vector<std::pair<std::uint32_t, double>>> adj(n);
  std::vector<std::uint32_t> deg(n, 0);  // live incident edge count
  {
    std::size_t m = edges.size();
    parallel_for(0, m, [&](std::size_t i) {
      std::atomic_ref<std::uint32_t>(deg[edges[i].u])
          .fetch_add(1, std::memory_order_relaxed);
      std::atomic_ref<std::uint32_t>(deg[edges[i].v])
          .fetch_add(1, std::memory_order_relaxed);
    });
    std::vector<std::uint32_t> off(n);
    parallel_for(0, n, [&](std::size_t v) { off[v] = deg[v]; });
    std::uint32_t total = scan_exclusive(off);
    assert(total == 2 * m);
    std::vector<std::uint32_t> cursor = off;
    struct Arc {
      std::uint32_t eid;
      std::uint32_t other;
      double w;
    };
    std::vector<Arc> arcs(total);
    parallel_for(0, m, [&](std::size_t i) {
      const Edge& e = edges[i];
      std::uint32_t id = static_cast<std::uint32_t>(i);
      std::uint32_t pu = std::atomic_ref<std::uint32_t>(cursor[e.u])
                             .fetch_add(1, std::memory_order_relaxed);
      arcs[pu] = Arc{id, e.v, e.w};
      std::uint32_t pv = std::atomic_ref<std::uint32_t>(cursor[e.v])
                             .fetch_add(1, std::memory_order_relaxed);
      arcs[pv] = Arc{id, e.u, e.w};
    });
    parallel_for(0, n, [&](std::size_t v) {
      std::uint32_t s = off[v], e = off[v] + deg[v];
      std::sort(arcs.begin() + s, arcs.begin() + e,
                [](const Arc& a, const Arc& b) { return a.eid < b.eid; });
      auto& av = adj[v];
      av.resize(deg[v]);
      for (std::uint32_t i = s; i < e; ++i) {
        av[i - s] = {arcs[i].other, arcs[i].w};
      }
    });
  }
  std::vector<std::uint8_t> eliminated(n, 0);
  Rng rng(seed);

  auto compact = [&](std::uint32_t v) {
    auto& a = adj[v];
    std::size_t w = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!eliminated[a[i].first]) a[w++] = a[i];
    }
    a.resize(w);
    assert(a.size() == deg[v]);
  };

  std::size_t remaining = n;
  for (std::uint32_t round = 0; remaining > 0; ++round) {
    // Candidates: live vertices of degree <= 2.
    std::vector<std::uint32_t> cand = pack_index(n, [&](std::size_t v) {
      return !eliminated[v] && deg[v] <= 2;
    });
    if (cand.empty()) break;
    ++out.rounds;
    Rng round_rng = rng.child(round);

    // Random priorities; a candidate is selected iff it beats every
    // candidate neighbor (independent set of local maxima).
    std::vector<std::uint64_t> prio(n, 0);
    parallel_for(0, cand.size(), [&](std::size_t i) {
      // Mix the vertex id so priorities are distinct.
      prio[cand[i]] = (round_rng.u64(cand[i]) << 20) | cand[i];
    });
    std::vector<std::uint8_t> selected(n, 0);
    parallel_for(0, cand.size(), [&](std::size_t i) {
      std::uint32_t v = cand[i];
      bool best = true;
      for (const auto& [u, w] : adj[v]) {
        (void)w;
        if (eliminated[u]) continue;
        if (deg[u] <= 2 && prio[u] > prio[v]) {
          best = false;
          break;
        }
      }
      selected[v] = best ? 1 : 0;
    });

    // Apply the independent set sequentially (the updates are O(1) each;
    // the parallel work above is the selection, matching the rake/compress
    // rounds of [MR89]).
    for (std::uint32_t v : cand) {
      if (!selected[v]) continue;
      compact(v);
      EliminationStep step;
      step.v = v;
      step.degree = deg[v];
      if (deg[v] >= 1) {
        step.u1 = adj[v][0].first;
        step.w1 = adj[v][0].second;
      }
      if (deg[v] == 2) {
        step.u2 = adj[v][1].first;
        step.w2 = adj[v][1].second;
      }
      step.pivot = step.w1 + step.w2;
      eliminated[v] = 1;
      --remaining;
      if (step.degree == 1) {
        --deg[step.u1];
      } else if (step.degree == 2) {
        if (step.u1 == step.u2) {
          // Parallel edges to the same neighbor: the fill is a self-loop,
          // which vanishes from the Laplacian.
          deg[step.u1] -= 2;
        } else {
          double fill = step.w1 * step.w2 / step.pivot;
          adj[step.u1].push_back({step.u2, fill});
          adj[step.u2].push_back({step.u1, fill});
          // u1/u2 each lose the edge to v and gain the fill: deg unchanged.
        }
      }
      adj[v].clear();
      out.steps.push_back(step);
    }
  }

  // Assemble the reduced graph.
  out.reduced_of_orig.assign(n, kGone);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!eliminated[v]) {
      out.reduced_of_orig[v] = static_cast<std::uint32_t>(
          out.orig_of_reduced.size());
      out.orig_of_reduced.push_back(v);
    }
  }
  out.reduced_n = static_cast<std::uint32_t>(out.orig_of_reduced.size());
  for (std::uint32_t v : out.orig_of_reduced) {
    compact(v);
    for (const auto& [u, w] : adj[v]) {
      if (u > v || (u == v)) continue;  // emit each edge once (u < v side)
      out.reduced_edges.push_back(
          Edge{out.reduced_of_orig[u], out.reduced_of_orig[v], w});
    }
  }
  // Merge parallel edges in the reduced graph (Laplacian-equivalent and
  // keeps later levels lean).
  out.reduced_edges = combine_parallel_edges(out.reduced_edges);
  return out;
}

template <typename T>
void GreedyEliminationResult::fold_rhs_block(
    const BasicMultiVec<T>& b, BasicMultiVec<T>& folded,
    BasicMultiVec<T>& reduced_rhs) const {
  std::size_t k = b.cols();
  ensure_shape(folded, b.rows(), k);
  kernels::copy_cols(b, folded);
  kernels::fold_steps(steps.data(), steps.size(), folded);
  ensure_shape(reduced_rhs, reduced_n, k);
  kernels::gather_rows(folded, orig_of_reduced.data(), reduced_rhs);
}

template <typename T>
void GreedyEliminationResult::back_substitute_block(
    const BasicMultiVec<T>& folded_b, const BasicMultiVec<T>& x_reduced,
    BasicMultiVec<T>& x) const {
  std::size_t k = folded_b.cols();
  x.assign(folded_b.rows(), k, T(0));
  kernels::scatter_rows(x_reduced, orig_of_reduced.data(), x);
  kernels::backsub_steps(steps.data(), steps.size(), folded_b, x);
}

template void GreedyEliminationResult::fold_rhs_block(const MultiVec&,
                                                      MultiVec&,
                                                      MultiVec&) const;
template void GreedyEliminationResult::back_substitute_block(const MultiVec&,
                                                             const MultiVec&,
                                                             MultiVec&) const;
template void GreedyEliminationResult::fold_rhs_block(
    const BasicMultiVec<float>&, BasicMultiVec<float>&,
    BasicMultiVec<float>&) const;
template void GreedyEliminationResult::back_substitute_block(
    const BasicMultiVec<float>&, const BasicMultiVec<float>&,
    BasicMultiVec<float>&) const;

void GreedyEliminationResult::save(serialize::Writer& w) const {
  std::vector<std::uint32_t> ids(4 * steps.size());
  std::vector<double> weights(3 * steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    ids[4 * i] = steps[i].v;
    ids[4 * i + 1] = steps[i].degree;
    ids[4 * i + 2] = steps[i].u1;
    ids[4 * i + 3] = steps[i].u2;
    weights[3 * i] = steps[i].w1;
    weights[3 * i + 1] = steps[i].w2;
    weights[3 * i + 2] = steps[i].pivot;
  }
  w.pod_vec(ids);
  w.pod_vec(weights);
  w.u32(rounds);
  w.u32(reduced_n);
  save_edges(w, reduced_edges);
  w.pod_vec(orig_of_reduced);
  w.pod_vec(reduced_of_orig);
}

GreedyEliminationResult GreedyEliminationResult::load(serialize::Reader& r,
                                                      std::uint32_t n) {
  GreedyEliminationResult e;
  std::vector<std::uint32_t> ids = r.pod_vec<std::uint32_t>();
  std::vector<double> weights = r.pod_vec<double>();
  if (r.status().ok() &&
      (ids.size() % 4 != 0 || weights.size() != ids.size() / 4 * 3)) {
    r.fail("elimination step arrays disagree on length");
  }
  if (r.status().ok()) {
    e.steps.resize(ids.size() / 4);
    for (std::size_t i = 0; i < e.steps.size(); ++i) {
      e.steps[i] = EliminationStep{ids[4 * i],     ids[4 * i + 1],
                                   ids[4 * i + 2], ids[4 * i + 3],
                                   weights[3 * i], weights[3 * i + 1],
                                   weights[3 * i + 2]};
    }
  }
  e.rounds = r.u32();
  e.reduced_n = r.u32();
  e.reduced_edges = load_edges(r);
  e.orig_of_reduced = r.pod_vec<std::uint32_t>();
  e.reduced_of_orig = r.pod_vec<std::uint32_t>();
  if (!r.status().ok()) return e;
  // A chain's bottom level carries a default-constructed result (the build
  // never eliminates there); it round-trips as all-empty.
  if (e.steps.empty() && e.rounds == 0 && e.reduced_n == 0 &&
      e.reduced_edges.empty() && e.orig_of_reduced.empty() &&
      e.reduced_of_orig.empty()) {
    return e;
  }
  // Every stored index feeds unchecked array accesses in fold_rhs_block /
  // back_substitute_block; validate all of them against the caller's n
  // before the result can reach a solve.
  bool ok = e.reduced_n <= n && e.orig_of_reduced.size() == e.reduced_n &&
            e.reduced_of_orig.size() == n;
  for (std::size_t i = 0; ok && i < e.steps.size(); ++i) {
    const EliminationStep& s = e.steps[i];
    ok = s.v < n && s.degree <= 2 && (s.degree < 1 || s.u1 < n) &&
         (s.degree < 2 || s.u2 < n);
  }
  for (std::size_t i = 0; ok && i < e.reduced_edges.size(); ++i) {
    ok = e.reduced_edges[i].u < e.reduced_n && e.reduced_edges[i].v < e.reduced_n;
  }
  for (std::size_t i = 0; ok && i < e.orig_of_reduced.size(); ++i) {
    ok = e.orig_of_reduced[i] < n;
  }
  for (std::size_t i = 0; ok && i < e.reduced_of_orig.size(); ++i) {
    ok = e.reduced_of_orig[i] < e.reduced_n || e.reduced_of_orig[i] == kGone;
  }
  if (!ok) r.fail("elimination schedule indexes out of bounds");
  return e;
}

}  // namespace parsdd
