// E17: per-kernel cost of every kernels::Backend op table.
//
// Times each BlockOps kernel of every table the CPU supports (scalar, avx2,
// avx512), for f64 and f32, at block widths k in {1, 3, 4, 8, 16, 32}, on a
// 4096-row block: the 64x64 grid Laplacian for SpMM, and a fixed 4094-step
// mixed-degree elimination record for fold/backsub (run in the 8-column
// chunks layer 2 uses, so one call is a whole block).  Each cell is the
// minimum over --runs alternating runs (every table once per run) of the
// median of 9 timed batches, in microseconds per call.
//
// Every table must compute the scalar table's bytes (DESIGN.md §9): each
// kernel's output is memcmp'd against the scalar table's from identical
// inputs, and any mismatch exits 1.  Only kernels::detail::*_backend() is
// used, so the same file also times older checkouts of the library.
//
// Usage: bench_kernels [--runs N]   (default 3; writes BENCH_kernels.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "graph/generators.h"
#include "kernels/backend_detail.h"
#include "linalg/laplacian.h"

namespace {

using namespace parsdd;
using kernels::BlockOps;
using kernels::ElimStep;

constexpr std::uint32_t kSide = 64;
constexpr std::size_t kRows = std::size_t{kSide} * kSide;
constexpr std::size_t kWidths[] = {1, 3, 4, 8, 16, 32};
constexpr std::size_t kChunk = 8;   // layer 2's fold/backsub column chunk
constexpr int kBatches = 9;         // timed batches per cell (median)
constexpr double kBatchUs = 300.0;  // target length of one batch

// In BlockOps field order; call() switches on the index.
const char* const kKernelNames[] = {
    "axpy_cols",
    "xpay_cols",
    "scale_cols",
    "copy_cols",
    "sub_cols",
    "dot_cols_acc",
    "dot_diff_cols_acc",
    "sum_cols_acc",
    "spmm_rows",
    "fold_cols",
    "backsub_cols",
};
constexpr std::size_t kKernels = std::size(kKernelNames);

struct Table {
  const char* name;
  const kernels::Backend* be;
};

std::vector<Table> supported_tables() {
  std::vector<Table> t = {{"scalar", &kernels::detail::scalar_backend()}};
  if (kernels::detail::avx2_supported()) {
    t.push_back({"avx2", &kernels::detail::avx2_backend()});
  }
  if (kernels::detail::avx512_supported()) {
    t.push_back({"avx512", &kernels::detail::avx512_backend()});
  }
  return t;
}

// Deterministic fill in [-0.5, 0.5).
template <typename T>
std::vector<T> filled(std::uint64_t seed, std::size_t n) {
  std::vector<T> v(n);
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  for (T& e : v) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    e = static_cast<T>(static_cast<double>(s >> 11) * 0x1p-53 - 0.5);
  }
  return v;
}

// The shared inputs of one (element type, width) cell.  Column scalars sit
// near 1 so repeated calls inside a batch neither overflow nor go
// denormal; the fold factors sum to 1/4 per step for the same reason.
template <typename T>
struct Inputs {
  std::size_t k;
  std::vector<T> x, y, z, a, acc, val;
  const std::size_t* off;
  const std::uint32_t* col;
  const std::vector<ElimStep>* steps;
};

struct Shared {
  CsrMatrix grid;
  std::vector<float> grid_f32;
  std::vector<ElimStep> steps;
};

Shared make_shared() {
  GeneratedGraph g = grid2d(kSide, kSide);
  Shared s{laplacian_from_edges(g.n, g.edges), {}, {}};
  const std::size_t nnz = s.grid.offsets()[kRows];
  s.grid_f32.assign(s.grid.vals(), s.grid.vals() + nnz);
  const std::vector<double> u = filled<double>(99, 3 * kRows);
  for (std::uint32_t v = 0; v + 2 < kRows; ++v) {
    ElimStep e;
    e.v = v;
    e.degree = v % 3;
    e.u1 = v + 1 + (u[3 * v] > 0.0 ? 1 : 0);
    e.u2 = std::min<std::uint32_t>(e.u1 + 1, kRows - 1);
    if (e.degree >= 1) e.w1 = 0.75 + u[3 * v + 1];
    if (e.degree == 2) e.w2 = 0.75 + u[3 * v + 2];
    e.pivot = e.degree == 0 ? 1.0 : 4.0 * (e.w1 + e.w2);
    s.steps.push_back(e);
  }
  return s;
}

template <typename T>
Inputs<T> make_inputs(const Shared& s, std::size_t k) {
  Inputs<T> in;
  in.k = k;
  in.x = filled<T>(1, kRows * k);
  in.y = filled<T>(2, kRows * k);
  in.z = filled<T>(3, kRows * k);
  in.a = filled<T>(4, k);
  for (T& e : in.a) e = T(1) + e / T(64);
  in.acc = filled<T>(5, k);
  if constexpr (std::is_same_v<T, double>) {
    in.val.assign(s.grid.vals(), s.grid.vals() + s.grid.offsets()[kRows]);
  } else {
    in.val = s.grid_f32;
  }
  in.off = s.grid.offsets();
  in.col = s.grid.cols();
  in.steps = &s.steps;
  return in;
}

// One call of kernel `which` on `out`, which holds y (column kernels), acc
// (reductions), the SpMM output, the folded block, or the back-substituted
// block.
template <typename T>
void call(const BlockOps<T>& ops, std::size_t which, const Inputs<T>& in,
          std::vector<T>& out) {
  const std::size_t k = in.k;
  const std::vector<ElimStep>& st = *in.steps;
  switch (which) {
    case 0:
      ops.axpy_cols(in.a.data(), in.x.data(), out.data(), kRows, k);
      break;
    case 1:
      ops.xpay_cols(in.x.data(), in.a.data(), out.data(), kRows, k);
      break;
    case 2:
      ops.scale_cols(in.a.data(), out.data(), kRows, k);
      break;
    case 3:
      ops.copy_cols(in.x.data(), out.data(), kRows, k);
      break;
    case 4:
      ops.sub_cols(in.a.data(), out.data(), kRows, k);
      break;
    case 5:
      ops.dot_cols_acc(in.x.data(), in.y.data(), kRows, k, out.data());
      break;
    case 6:
      ops.dot_diff_cols_acc(in.z.data(), in.x.data(), in.y.data(), kRows, k,
                            out.data());
      break;
    case 7:
      ops.sum_cols_acc(in.x.data(), kRows, k, out.data());
      break;
    case 8:
      ops.spmm_rows(in.off, in.col, in.val.data(), in.x.data(), out.data(), 0,
                    kRows, k);
      break;
    case 9:
      for (std::size_t c0 = 0; c0 < k; c0 += kChunk) {
        ops.fold_cols(st.data(), st.size(), out.data(), k, c0,
                      std::min(k, c0 + kChunk));
      }
      break;
    default:
      for (std::size_t c0 = 0; c0 < k; c0 += kChunk) {
        ops.backsub_cols(st.data(), st.size(), in.y.data(), out.data(), k, c0,
                         std::min(k, c0 + kChunk));
      }
      break;
  }
}

// The block a kernel starts from: acc for the reductions, z for
// back-substitution (x at the eliminated rows is overwritten, the rest is
// read), y otherwise.
template <typename T>
const std::vector<T>& start_of(std::size_t which, const Inputs<T>& in) {
  if (which >= 5 && which <= 7) return in.acc;
  if (which == 10) return in.z;
  return in.y;
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Median over kBatches of the mean call time; the working block is reset
// (untimed) before every batch.
template <typename T>
double time_cell(const BlockOps<T>& ops, std::size_t which,
                 const Inputs<T>& in) {
  const std::vector<T>& start = start_of(which, in);
  std::vector<T> out = start;
  double t0 = now_us();
  call(ops, which, in, out);  // warm-up, and the calibration sample
  const double one = std::max(now_us() - t0, 0.05);
  const int reps = std::clamp(static_cast<int>(kBatchUs / one), 1, 20000);
  double batch[kBatches];
  for (double& b : batch) {
    out = start;
    t0 = now_us();
    for (int r = 0; r < reps; ++r) call(ops, which, in, out);
    b = (now_us() - t0) / reps;
  }
  std::nth_element(batch, batch + kBatches / 2, batch + kBatches);
  return batch[kBatches / 2];
}

template <typename T>
bool outputs_match(const std::vector<Table>& tables, const Inputs<T>& in,
                   const char* type) {
  bool ok = true;
  for (std::size_t w = 0; w < kKernels; ++w) {
    std::vector<T> want = start_of(w, in);
    call(tables[0].be->ops<T>(), w, in, want);
    for (std::size_t t = 1; t < tables.size(); ++t) {
      std::vector<T> got = start_of(w, in);
      call(tables[t].be->ops<T>(), w, in, got);
      if (std::memcmp(got.data(), want.data(), want.size() * sizeof(T)) != 0) {
        std::printf("MISMATCH: %s %s %s k=%zu differs from scalar\n",
                    tables[t].name, type, kKernelNames[w], in.k);
        ok = false;
      }
    }
  }
  return ok;
}

// best[table][kernel][width index], minimum over runs.
using Cells = std::vector<std::vector<std::vector<double>>>;

template <typename T>
bool measure(const std::vector<Table>& tables, const Shared& s, int runs,
             Cells& best) {
  const char* type = std::is_same_v<T, double> ? "f64" : "f32";
  best.assign(tables.size(),
              std::vector<std::vector<double>>(
                  kKernels, std::vector<double>(std::size(kWidths), 1e300)));
  bool ok = true;
  for (std::size_t wi = 0; wi < std::size(kWidths); ++wi) {
    const Inputs<T> in = make_inputs<T>(s, kWidths[wi]);
    ok = outputs_match(tables, in, type) && ok;
    for (int run = 0; run < runs; ++run) {
      for (std::size_t t = 0; t < tables.size(); ++t) {
        for (std::size_t w = 0; w < kKernels; ++w) {
          best[t][w][wi] = std::min(
              best[t][w][wi], time_cell(tables[t].be->ops<T>(), w, in));
        }
      }
    }
  }
  return ok;
}

void report(const std::vector<Table>& tables, const char* type,
            const Cells& best, parsdd_bench::BenchJson& json) {
  for (std::size_t t = 0; t < tables.size(); ++t) {
    std::printf("\n%s table, %s (us per call, %zu rows)\n", tables[t].name,
                type, kRows);
    std::printf("%-18s", "kernel");
    for (std::size_t k : kWidths) {
      std::printf(" %9s", ("k=" + std::to_string(k)).c_str());
    }
    std::printf("\n");
    for (std::size_t w = 0; w < kKernels; ++w) {
      std::printf("%-18s", kKernelNames[w]);
      for (std::size_t wi = 0; wi < std::size(kWidths); ++wi) {
        const double us = best[t][w][wi];
        std::printf(" %9.2f", us);
        json.record()
            .str("table", tables[t].name)
            .str("type", type)
            .str("kernel", kKernelNames[w])
            .num("k", static_cast<double>(kWidths[wi]))
            .num("rows", static_cast<double>(kRows))
            .num("us_per_call", us);
      }
      std::printf("\n");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int runs = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      runs = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--runs N]\n", argv[0]);
      return 2;
    }
  }
  parsdd_bench::header(
      "E17: per-kernel cost of every backend table",
      "BlockOps kernels on a 4096-row block, every supported table, "
      "f64 and f32; every table's bytes must equal the scalar table's");

  const std::vector<Table> tables = supported_tables();
  const Shared s = make_shared();
  Cells f64, f32;
  bool ok = measure<double>(tables, s, runs, f64);
  ok = measure<float>(tables, s, runs, f32) && ok;

  parsdd_bench::BenchJson json("kernels");
  report(tables, "f64", f64, json);
  report(tables, "f32", f32, json);
  json.write();
  if (!ok) {
    std::printf("\nFAIL: a table's output differs from the scalar table's\n");
    return 1;
  }
  std::printf("\nall %zu tables match the scalar table bytewise\n",
              tables.size());
  return 0;
}
