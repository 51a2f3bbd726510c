// detlint-fixture: path=src/sim/raw_thread_sim_pos.cc
#include <thread>

std::thread worker_;
