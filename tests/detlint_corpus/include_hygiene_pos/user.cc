// detlint-fixture: path=src/engine/ih_user.cc
#include <ctime>
#include "common/spin.h"
