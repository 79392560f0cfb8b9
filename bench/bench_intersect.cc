// Microbenchmark for the hybrid vertex-set intersection kernels: sweeps
// set density x size skew over a fixed universe and times the merge
// baseline (SortedIntersect) against the representation-matched hybrid
// kernels — vector/vector (merge or gallop), vector/bitmap (bit probe),
// and bitmap/bitmap (word AND + popcount).
//
// Every JSON row carries the kernel variant, so the CI perf artifacts are
// attributable to a code path. With SCPM_BENCH_JSON set every row lands
// in the CI perf artifacts.

#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "fim/eclat.h"
#include "graph/attributed_graph.h"
#include "util/hybrid_set.h"
#include "util/random.h"
#include "util/sorted_ops.h"
#include "util/timer.h"

namespace {

using scpm::HybridVertexSet;
using scpm::Rng;
using scpm::SetOpStats;
using scpm::VertexBitset;
using scpm::VertexId;
using scpm::VertexSet;

scpm::bench::JsonReport g_json("bench_intersect");
std::string g_section;

/// Times `fn` by doubling repetitions until the loop runs >= 20 ms and
/// returns seconds per call.
template <typename Fn>
double TimePerCall(const Fn& fn) {
  std::size_t reps = 1;
  for (;;) {
    scpm::WallTimer timer;
    for (std::size_t i = 0; i < reps; ++i) fn();
    const double elapsed = timer.ElapsedSeconds();
    if (elapsed >= 0.02 || reps >= (1u << 24)) {
      return elapsed / static_cast<double>(reps);
    }
    reps *= 2;
  }
}

std::string Extra(const char* kernel, double density, std::size_t skew,
                  double speedup) {
  std::ostringstream os;
  os << "\"kernel\":\"" << kernel << "\",\"density\":" << density
     << ",\"skew\":" << skew << ",\"speedup\":" << std::setprecision(4)
     << speedup;
  return os.str();
}

void RunCell(VertexId universe, double density, std::size_t skew, Rng& rng) {
  const std::uint32_t size_a = static_cast<std::uint32_t>(
      static_cast<double>(universe) * density);
  const std::uint32_t size_b =
      std::max<std::uint32_t>(1, size_a / static_cast<std::uint32_t>(skew));
  if (size_a == 0) return;
  const VertexSet a = rng.SampleWithoutReplacement(universe, size_a);
  const VertexSet b = rng.SampleWithoutReplacement(universe, size_b);

  // Merge baseline: the pre-hybrid kernel, forced onto sorted vectors.
  VertexSet out_vec;
  const double merge_s =
      TimePerCall([&] { scpm::SortedIntersect(a, b, &out_vec); });

  // vector/vector hybrid (universe 0 pins both sides sparse; picks the
  // gallop path on its own when the skew warrants it).
  const HybridVertexSet sparse_a = HybridVertexSet::View(&a, 0);
  const HybridVertexSet sparse_b = HybridVertexSet::View(&b, 0);
  HybridVertexSet out;
  const double vec_vec_s = TimePerCall(
      [&] { HybridVertexSet::Intersect(sparse_a, sparse_b, &out, nullptr); });

  // vector/bitmap: probe a's bitmap once per element of b. Timed at the
  // kernel level (like bitmap/bitmap below) so the row measures the
  // probe kernel at every density, including below the knee where the
  // hybrid dispatcher would not choose it.
  const VertexBitset bits_a = VertexBitset::FromSorted(a, universe);
  const double vec_bits_s = TimePerCall(
      [&] { IntersectSortedWithBits(b, bits_a, &out_vec); });

  // bitmap/bitmap word AND + popcount.
  const VertexBitset bits_b = VertexBitset::FromSorted(b, universe);
  VertexBitset out_bits(universe);
  const double bits_bits_s = TimePerCall(
      [&] { VertexBitset::And(bits_a, bits_b, &out_bits); });

  const auto speedup = [&](double s) { return s > 0 ? merge_s / s : 0.0; };
  std::cout << std::setw(8) << density << std::setw(6) << skew;
  std::cout << std::scientific << std::setprecision(3);
  for (double seconds : {merge_s, vec_vec_s, vec_bits_s, bits_bits_s}) {
    std::cout << std::setw(13) << seconds;
  }
  std::cout << std::fixed << std::setprecision(1);
  std::cout << std::setw(9) << speedup(bits_bits_s) << "x\n";
  std::cout << std::defaultfloat << std::setprecision(6);

  std::ostringstream label;
  label << "density=" << density << " skew=" << skew;
  g_json.Add(g_section, label.str() + " merge", merge_s,
             Extra("merge", density, skew, 1.0));
  g_json.Add(g_section, label.str() + " vec_vec", vec_vec_s,
             Extra("vec_vec", density, skew, speedup(vec_vec_s)));
  g_json.Add(g_section, label.str() + " vec_bitmap", vec_bits_s,
             Extra("vec_bitmap", density, skew, speedup(vec_bits_s)));
  g_json.Add(g_section, label.str() + " bitmap_bitmap", bits_bits_s,
             Extra("bitmap_bitmap", density, skew, speedup(bits_bits_s)));
}

/// End-to-end intersection-dominated workload: Eclat over a dense
/// transaction database (every tidset far past the 5% knee), hybrid
/// tidsets off vs on. This is the pipeline-level read on the same
/// kernels the sweep above times in isolation.
void RunEclatScenario(VertexId universe) {
  g_section = "eclat end-to-end";
  scpm::bench::SectionHeader(g_section);
  scpm::Rng rng(13);
  scpm::AttributedGraphBuilder builder(universe);
  const int num_attrs = 14;
  for (int a = 0; a < num_attrs; ++a) {
    builder.InternAttribute(std::string("a").append(std::to_string(a)));
  }
  for (VertexId v = 0; v < universe; ++v) {
    for (scpm::AttributeId a = 0; a < static_cast<scpm::AttributeId>(num_attrs);
         ++a) {
      if (rng.NextBool(0.4)) {
        if (!builder.AddVertexAttribute(v, a).ok()) return;
      }
    }
  }
  scpm::Result<scpm::AttributedGraph> g = builder.Build();
  if (!g.ok()) {
    std::cerr << "generation failed: " << g.status() << "\n";
    return;
  }
  scpm::EclatOptions options;
  options.min_support = universe / 50;

  double base = 0.0;
  for (bool hybrid : {false, true}) {
    options.use_hybrid_tidsets = hybrid;
    SetOpStats stats;
    scpm::Eclat eclat(options);
    eclat.set_stats(&stats);
    std::size_t itemsets = 0;
    scpm::WallTimer timer;
    scpm::Status status =
        eclat.Mine(*g, [&](const scpm::AttributeSet&, const VertexSet&) {
          ++itemsets;
          return true;
        });
    const double t = timer.ElapsedSeconds();
    if (!status.ok()) {
      std::cerr << "eclat failed: " << status << "\n";
      return;
    }
    if (!hybrid) base = t;
    std::cout << (hybrid ? "hybrid " : "merge  ") << std::fixed
              << std::setprecision(4) << t << " s  (" << itemsets
              << " itemsets, bitmap_isects=" << stats.bitmap_intersections
              << ", speedup " << std::setprecision(2)
              << (t > 0 ? base / t : 0.0) << "x)\n"
              << std::defaultfloat << std::setprecision(6);
    g_json.Add(g_section, hybrid ? "eclat hybrid" : "eclat merge", t,
               Extra(hybrid ? "hybrid" : "merge", 0.4, 1,
                     t > 0 ? base / t : 0.0));
  }
}

}  // namespace

int main() {
  scpm::bench::Banner(
      "Hybrid vertex-set intersection kernels",
      "density x skew sweep: merge vs vec/vec vs vec/bitmap vs "
      "bitmap/bitmap; Eclat end-to-end");
  const double scale = scpm::bench::Scale();
  const VertexId universe = std::max<VertexId>(
      1u << 14, static_cast<VertexId>((1u << 17) * scale));
  std::cout << "universe: " << universe << " vertices\n";
  Rng rng(7);

  g_section = "intersection kernels";
  std::cout << std::setw(8) << "density" << std::setw(6) << "skew"
            << std::setw(13) << "merge(s)" << std::setw(13) << "vec/vec(s)"
            << std::setw(13) << "vec/bmp(s)" << std::setw(13) << "bmp/bmp(s)"
            << std::setw(10) << "bmp spd\n";
  for (double density : {0.001, 0.01, 0.05, 0.1, 0.2}) {
    for (std::size_t skew : {1u, 8u, 64u}) {
      RunCell(universe, density, skew, rng);
    }
  }

  RunEclatScenario(universe / 4);
  g_json.Write();
  return 0;
}
