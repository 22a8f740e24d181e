// Seeded RNG, steady_clock durations, and value-keyed containers must
// pass lbmib-nondeterminism.
//
// CHECK: lbmib-nondeterminism
// EXPECT-CLEAN

unsigned long long pick(lbmib::SplitMix64& rng) {
  return rng.next() % 4;
}

void duration() {
  auto t0 = std::chrono::steady_clock::now();
  auto t1 = std::chrono::steady_clock::now();
  (void)t0;
  (void)t1;
}

std::map<int, int> task_priorities;  // keyed by stable task id
