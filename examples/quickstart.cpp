// Quickstart: the bref::Set facade — a concurrent ordered map with
// linearizable range queries, chosen by name at run time.
//
//   build/examples/quickstart
//
// Demonstrates: Set::create + capability introspection, RAII thread
// sessions (no raw thread ids), RangeSnapshot results with the logical
// timestamp each snapshot linearized at, and capability-checked options.

#include <cstdio>
#include <thread>
#include <vector>

#include "api/set.h"

int main() {
  using namespace bref;

  // Pick an implementation from the registry by name; every name in
  // ImplRegistry::instance().names() works here. Options are validated
  // against the implementation's capabilities.
  Set set = Set::create("Bundle-skiplist");
  std::printf("created %s (capabilities: %s)\n", set.name().c_str(),
              set.capabilities().to_string().c_str());

  // --- basic single-threaded usage -------------------------------------
  // A session binds this thread to the set; ids acquire/release via RAII.
  {
    auto s = set.session();
    for (KeyT k = 10; k <= 100; k += 10) s.insert(k, k * k);
    std::printf("contains(30) = %d\n", s.contains(30));
    std::printf("value at 40  = %lld\n",
                static_cast<long long>(s.get(40).value_or(-1)));
    s.remove(50);

    // Linearizable range query: an atomic snapshot of [20, 80], stamped
    // with the logical time it linearized at.
    RangeSnapshot snap = s.range_query(20, 80);
    std::printf("range [20,80] @ts=%llu:",
                static_cast<unsigned long long>(snap.timestamp()));
    for (const auto& [k, val] : snap) std::printf(" %lld", (long long)k);
    std::printf("\n");
  }

  // --- capability checking ----------------------------------------------
  // Options an implementation cannot honor are an error, never a no-op.
  try {
    (void)Set::create("RLU-list", {.reclaim = true});
  } catch (const UnsupportedOptionError& e) {
    std::printf("as expected: %s\n", e.what());
  }

  // --- concurrent usage --------------------------------------------------
  // Four writers churn disjoint stripes while a scanner takes snapshots;
  // each snapshot is a consistent cut whose timestamp only moves forward.
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&set, w] {
      auto s = set.session();
      for (KeyT i = 0; i < 2000; ++i) {
        KeyT k = 1000 + w + i * 4;
        s.insert(k, k);
        if (i % 3 == 0) s.remove(k);
      }
    });
  }
  std::thread scanner([&set] {
    auto s = set.session();
    RangeSnapshot snap;
    timestamp_t prev_ts = 0;
    for (int i = 0; i < 50; ++i) {
      s.range_query(1000, 10000, snap);
      // Each snapshot is atomic: sorted, duplicate-free, consistent with
      // one point in logical time — and that point never runs backwards.
      if (snap.timestamp() < prev_ts) std::printf("TIME RAN BACKWARDS\n");
      prev_ts = snap.timestamp();
    }
    std::printf("last snapshot: %zu keys @ts=%llu\n", snap.size(),
                static_cast<unsigned long long>(snap.timestamp()));
  });
  for (auto& t : writers) t.join();
  scanner.join();

  auto s = set.session();
  RangeSnapshot fin = s.range_query(1000, 10000);
  std::printf("final [1000,10000] size: %zu (expected %d)\n", fin.size(),
              4 * (2000 - 2000 / 3 - 1));
  return 0;
}
