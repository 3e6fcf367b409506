#include "common/parallel.h"

#include <algorithm>

namespace themis {

std::size_t hardware_thread_count() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace themis
