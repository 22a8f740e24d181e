// The library's own primitives — and NOLINT'ed deliberate exceptions —
// must pass lbmib-raw-sync.
//
// CHECK: lbmib-raw-sync
// EXPECT-CLEAN

struct Worker {
  lbmib::Mutex mu;
  lbmib::SpinLock spin;
  // A daemon that must outlive cancellation is a documented exception.
  std::thread monitor;  // NOLINT(lbmib-raw-sync) daemon outlives cancellation
};

void serialize(Worker& w) {
  lbmib::MutexLock lock(w.mu);
}
