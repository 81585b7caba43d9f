#include "util/flags.hpp"

#include <string>

namespace syn::util {

std::uint64_t parse_flag_u64(std::string_view name, std::string_view value,
                             std::uint64_t min, std::uint64_t max) {
  const auto fail = [&](const std::string& why) {
    return FlagError(std::string(name) + ": \"" + std::string(value) +
                     "\" " + why);
  };
  if (value.empty()) throw fail("is not a non-negative integer");
  std::uint64_t result = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') throw fail("is not a non-negative integer");
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (result > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw fail("overflows");
    }
    result = result * 10 + digit;
  }
  if (result < min || result > max) {
    throw fail("is out of range [" + std::to_string(min) + ", " +
               std::to_string(max) + "]");
  }
  return result;
}

}  // namespace syn::util
