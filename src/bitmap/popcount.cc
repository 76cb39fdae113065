#include "bitmap/popcount.h"

namespace cods {

bool CpuHasPopcnt() {
#if CODS_POPCNT_DISPATCH
  static const bool has_popcnt = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt") != 0;
  }();
  return has_popcnt;
#else
  return false;
#endif
}

}  // namespace cods
