// Waits and spins that carry a cancellation seam, a model-checker hook
// or instrumentation — and NOLINT'ed leaf wrappers — must pass
// lbmib-sync-visibility.
//
// CHECK: lbmib-sync-visibility
// EXPECT-CLEAN

void visible_spin(std::atomic<int>& flag) {
  while (flag.load(std::memory_order_acquire) == 0) {
    lbmib::cancel_point("visible_spin");
  }
}

void checked_wait(lbmib::Mutex& mu, Cv& cv) {
  LBMIB_MC_CHECK(mc::sched_point();)
  mu.wait(cv);
}

void model_wait(bool& ready) {
  lbmib::mc::wait_until([&] { return ready; });
}

void leaf_wait(Cv& cv, Lock& lock) {
  cv.wait(lock);  // NOLINT(lbmib-sync-visibility) callers carry the seam
}

// Delegating calls are not flagged: the primitive carries the hooks.
void delegate(lbmib::Barrier& barrier, lbmib::Channel<int>& ch) {
  barrier.arrive_and_wait();
  int msg = 0;
  ch.recv(msg);
}
