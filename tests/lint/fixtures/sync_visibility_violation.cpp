// lbmib-sync-visibility must flag raw condition-variable waits and
// atomic spin loops that no cancel_point, model-checker schedule point
// or instrumentation hook can see.
//
// CHECK: lbmib-sync-visibility
// EXPECT: blocking wait or spin loop has no cancel_point, mc::, inst:: or race:: marker within 12 lines

void naked_spin(std::atomic<int>& flag) {
  while (flag.load(std::memory_order_acquire) == 0) {
  }
}

void naked_wait(Cv& cv, Lock& lock) {
  cv.wait(lock);
}

void naked_timed_wait(Waiter* w) {
  w->wait_for(std::chrono::milliseconds(5));
}
