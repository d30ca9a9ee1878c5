// Machine fingerprint printed with every result, and the STREAM-style read
// probe whose bandwidth is the denominator of hdc.bw_frac.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "hdc/kernels/packed_item_memory.hpp"
#include "hdc/kernels/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

struct Fingerprint {
  unsigned hardware_threads = 0;
  std::string cpu_model;
  std::string simd_detected;
  std::string simd_dispatched;
  std::size_t scan_pool_width = 0;
  std::string build_type;
  double read_gbps = 0.0;
};

/// Read bandwidth of this box: `threads` workers each sum their slice of a
/// 128 MiB buffer (four independent accumulators, so the adds never bound
/// the loop); the best of five passes, in GB/s of bytes read. Threads match
/// the scan pool so the figure is comparable to a parallel plane scan.
inline double measure_read_gbps(std::size_t threads) {
  constexpr std::size_t kWords = (128u << 20) / sizeof(std::uint64_t);
  std::vector<std::uint64_t> buf(kWords);
  for (std::size_t i = 0; i < kWords; ++i) buf[i] = i * 0x9E3779B97F4A7C15ull;
  threads = std::max<std::size_t>(1, threads);
  std::vector<std::uint64_t> sums(threads);
  double best = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = kWords * t / threads;
        const std::size_t hi = kWords * (t + 1) / threads;
        std::uint64_t a = 0, b = 0, c = 0, d = 0;
        std::size_t i = lo;
        for (; i + 4 <= hi; i += 4) {
          a += buf[i];
          b += buf[i + 1];
          c += buf[i + 2];
          d += buf[i + 3];
        }
        for (; i < hi; ++i) a += buf[i];
        sums[t] = a + b + c + d;
      });
    }
    for (auto& th : pool) th.join();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::max(best, static_cast<double>(kWords * 8) / s / 1e9);
  }
  // A volatile store keeps the summed loads observable to the optimizer.
  static volatile std::uint64_t sink = 0;
  for (const auto v : sums) sink = sink ^ v;
  return best;
}

/// The CPU's brand string from CPUID leaves 0x80000002-4; "unknown" where
/// the instruction or the leaves are missing.
inline std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (!__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                     &regs[4 * leaf + 2], &regs[4 * leaf + 3])) {
      return "unknown";
    }
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s.empty() ? "unknown" : s;
#else
  return "unknown";
#endif
}

inline Fingerprint fingerprint() {
  namespace hk = factorhd::hdc::kernels;
  Fingerprint f;
  f.hardware_threads = std::thread::hardware_concurrency();
  f.cpu_model = cpu_model();
  f.simd_detected = hk::to_string(hk::detect_simd_level());
  f.simd_dispatched = hk::to_string(hk::dispatched_simd_level());
  f.scan_pool_width = hk::scan_pool_width();
  f.build_type = PERFBENCH_BUILD_TYPE;
  f.read_gbps = measure_read_gbps(f.scan_pool_width);
  return f;
}

/// Peak resident set of this process so far, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
