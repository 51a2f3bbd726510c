// detlint-fixture: path=src/sim/wall_clock_neg.cc
SimTime Now() const { return now_; }
SimTime time(SimTime t) { return t; }
SimTime Stamp() { return time(42); }
