// lbmib-lock-discipline must flag manual lock()/unlock() pairs and
// blocking calls made while a SpinLock is held.
//
// CHECK: lbmib-lock-discipline
// EXPECT: manual 'lock()' call; use a RAII guard
// EXPECT: manual 'unlock()' call; use a RAII guard
// EXPECT: while a SpinLock is held (guard 'guard' is live)

int shared_counter;

void manual_locking(lbmib::SpinLock& mu) {
  mu.lock();
  ++shared_counter;
  mu.unlock();
}

void blocking_under_spinlock(lbmib::SpinLock& mu, lbmib::Channel<int>& ch) {
  lbmib::SpinLockGuard guard(mu);
  int msg = 0;
  ch.recv(msg);
  shared_counter += msg;
}
