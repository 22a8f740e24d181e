// RAII guards, and blocking only after the guard's scope closes, must
// pass lbmib-lock-discipline.
//
// CHECK: lbmib-lock-discipline
// EXPECT-CLEAN

int shared_counter;

void guarded(lbmib::SpinLock& mu) {
  lbmib::SpinLockGuard guard(mu);
  ++shared_counter;
}

void block_after_release(lbmib::SpinLock& mu, lbmib::Channel<int>& ch) {
  {
    lbmib::SpinLockGuard guard(mu);
    ++shared_counter;
  }
  int msg = 0;
  ch.recv(msg);
}
