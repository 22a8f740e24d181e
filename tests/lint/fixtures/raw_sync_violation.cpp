// lbmib-raw-sync must flag raw standard-library synchronization that
// bypasses the instrumented primitives in src/parallel/.
//
// CHECK: lbmib-raw-sync
// EXPECT: raw 'std::mutex' outside src/parallel/ is invisible to the race detector
// EXPECT: raw 'std::condition_variable' outside src/parallel/
// EXPECT: raw 'std::thread' outside src/parallel/

struct Worker {
  std::mutex mu;
  std::condition_variable cv;
  std::thread runner;
};
