// Solver-kernel microbenchmarks (google-benchmark).
//
//   build/bench/kernel_microbench [--benchmark_filter=...]
//
// Measures the numerical kernels whose costs appear in the paper's "fitting
// cost" rows: the three path solvers vs problem size, the incremental-QR
// trick vs naive per-step refactorization, design-matrix evaluation, and the
// underlying GEMM/correlation primitives.
#include <benchmark/benchmark.h>

#include "basis/dictionary.hpp"
#include "common.hpp"
#include "core/lar.hpp"
#include "core/omp.hpp"
#include "core/star.hpp"
#include "linalg/blas.hpp"
#include "linalg/incremental_qr.hpp"
#include "linalg/qr.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace {

using namespace rsm;

struct Problem {
  Matrix g;
  std::vector<Real> f;
};

Problem make_problem(Index k, Index m, Index p) {
  Rng rng(static_cast<std::uint64_t>(k * 7919 + m));
  Problem prob;
  prob.g = monte_carlo_normal(k, m, rng);
  prob.f.assign(static_cast<std::size_t>(k), Real{0});
  for (Index i = 0; i < p; ++i) {
    const Index j = rng.uniform_index(m);
    const Real c = rng.normal();
    for (Index r = 0; r < k; ++r)
      prob.f[static_cast<std::size_t>(r)] += c * prob.g(r, j);
  }
  for (Real& v : prob.f) v += 0.01 * rng.normal();
  return prob;
}

void BM_OmpFitPath(benchmark::State& state) {
  const Index m = state.range(0);
  const Problem prob = make_problem(500, m, 20);
  const OmpSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.fit_path(MaterializedSource(prob.g), prob.f, 40));
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_OmpFitPath)->Arg(500)->Arg(2000)->Arg(8000)->Complexity();

void BM_LarFitPath(benchmark::State& state) {
  const Index m = state.range(0);
  const Problem prob = make_problem(500, m, 20);
  const LarSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.fit_path(MaterializedSource(prob.g), prob.f, 40));
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_LarFitPath)->Arg(500)->Arg(2000)->Arg(8000)->Complexity();

void BM_StarFitPath(benchmark::State& state) {
  const Index m = state.range(0);
  const Problem prob = make_problem(500, m, 20);
  const StarSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.fit_path(MaterializedSource(prob.g), prob.f, 40));
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_StarFitPath)->Arg(500)->Arg(2000)->Arg(8000)->Complexity();

// The Step-6 implementation choice: incremental QR appends vs a fresh
// Householder factorization at every step (what a naive Algorithm 1 does).
void BM_IncrementalQrSteps(benchmark::State& state) {
  const Index k = 800, p = state.range(0);
  Rng rng(3);
  const Matrix a = monte_carlo_normal(k, p, rng);
  const std::vector<Real> b = rng.normal_vector(k);
  for (auto _ : state) {
    IncrementalQr qr(k, p);
    for (Index j = 0; j < p; ++j) {
      benchmark::DoNotOptimize(qr.append_column(a.col(j)));
      benchmark::DoNotOptimize(qr.solve(b));
    }
  }
}
BENCHMARK(BM_IncrementalQrSteps)->Arg(20)->Arg(60)->Arg(120);

void BM_NaiveRefactorSteps(benchmark::State& state) {
  const Index k = 800, p = state.range(0);
  Rng rng(3);
  const Matrix a = monte_carlo_normal(k, p, rng);
  const std::vector<Real> b = rng.normal_vector(k);
  for (auto _ : state) {
    for (Index j = 1; j <= p; ++j) {
      Matrix prefix(k, j);
      for (Index r = 0; r < k; ++r)
        for (Index c = 0; c < j; ++c) prefix(r, c) = a(r, c);
      benchmark::DoNotOptimize(QrFactorization(prefix).solve(b));
    }
  }
}
BENCHMARK(BM_NaiveRefactorSteps)->Arg(20)->Arg(60)->Arg(120);

void BM_DesignMatrixQuadratic(benchmark::State& state) {
  const Index n = state.range(0);
  const BasisDictionary dict = BasisDictionary::quadratic(n);
  Rng rng(4);
  const Matrix samples = monte_carlo_normal(200, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.design_matrix(samples));
  }
  state.counters["M"] = static_cast<double>(dict.size());
}
BENCHMARK(BM_DesignMatrixQuadratic)->Arg(20)->Arg(50)->Arg(100);

void BM_CorrelationScan(benchmark::State& state) {
  // One OMP step's dominant kernel: G' * residual.
  const Index k = 1000, m = state.range(0);
  Rng rng(5);
  const Matrix g = monte_carlo_normal(k, m, rng);
  const std::vector<Real> r = rng.normal_vector(k);
  std::vector<Real> out(static_cast<std::size_t>(m));
  for (auto _ : state) {
    gemv_transposed(g, r, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * k *
                          m * static_cast<std::int64_t>(sizeof(Real)));
}
BENCHMARK(BM_CorrelationScan)->Arg(1000)->Arg(5000)->Arg(21311);

void BM_StreamingOmp(benchmark::State& state) {
  // OMP against a lazily evaluated quadratic dictionary (no materialized
  // design matrix): the memory-for-time trade used when M ~ 10^6.
  const Index n = state.range(0);
  const auto dict = std::make_shared<BasisDictionary>(
      BasisDictionary::quadratic(n));
  Rng rng(7);
  const Index k = 150;
  const Matrix samples = monte_carlo_normal(k, n, rng);
  std::vector<Real> f(static_cast<std::size_t>(k));
  for (Index r = 0; r < k; ++r)
    f[static_cast<std::size_t>(r)] =
        2.0 * dict->evaluate(1, samples.row(r)) -
        dict->evaluate(dict->size() / 2, samples.row(r));
  const OmpSolver solver;
  const DictionarySource source(dict, samples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.fit_path(source, f, 5));
  }
  state.counters["M"] = static_cast<double>(dict->size());
}
BENCHMARK(BM_StreamingOmp)->Arg(50)->Arg(150)->Arg(400);

void BM_Gemm(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(6);
  const Matrix a = monte_carlo_normal(n, n, rng);
  const Matrix b = monte_carlo_normal(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256)->Arg(512);

}  // namespace

// Expanded BENCHMARK_MAIN() with a BenchReport wrapped around the run, so
// the span tree and solver telemetry the fixtures generate land in
// BENCH_kernel_microbench.json like every other bench.
int main(int argc, char** argv) {
  rsm::bench::BenchReport bench_report("kernel_microbench");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  bench_report.results().set("benchmarks_run",
                             static_cast<std::int64_t>(ran));
  benchmark::Shutdown();
  return 0;
}
