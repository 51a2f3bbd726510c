// detlint-fixture: path=src/common/spin.h
#include <thread>

inline void Spin() {}
