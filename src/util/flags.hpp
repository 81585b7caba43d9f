// Strict numeric command-line flags for the executables.
//
// Every numeric flag the tools take is a non-negative base-10 integer.
// parse_flag() accepts exactly that: digits only — no sign, no spaces, no
// trailing text — within [min, max] and the target type's range. Anything
// else throws FlagError naming the flag, so a typo like --seed=abc is an
// error instead of silently meaning 0.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace syn::util {

/// A malformed or out-of-range flag value; what() starts with the flag.
struct FlagError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Parses `value` (the text after "name=") as an integer in [min, max].
/// Throws FlagError on an empty, non-numeric, signed, trailing-garbage,
/// overflowing or out-of-range value.
[[nodiscard]] std::uint64_t parse_flag_u64(std::string_view name,
                                           std::string_view value,
                                           std::uint64_t min,
                                           std::uint64_t max);

template <class T>
[[nodiscard]] T parse_flag(std::string_view name, std::string_view value,
                           std::type_identity_t<T> min = 0,
                           std::type_identity_t<T> max =
                               std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T>);  // non-negative bounds only
  return static_cast<T>(parse_flag_u64(name, value,
                                       static_cast<std::uint64_t>(min),
                                       static_cast<std::uint64_t>(max)));
}

/// If `arg` is "<name>=<value>", parses the value into `out` (as
/// parse_flag) and returns true; any other arg returns false untouched.
template <class T>
bool read_flag(std::string_view arg, std::string_view name, T& out,
               std::type_identity_t<T> min = 0,
               std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  if (arg.size() <= name.size() || arg.substr(0, name.size()) != name ||
      arg[name.size()] != '=') {
    return false;
  }
  out = parse_flag<T>(name, arg.substr(name.size() + 1), min, max);
  return true;
}

/// Millisecond-duration flags (--hb-ms, --gc-ttl-ms, ...).
inline bool read_flag(std::string_view arg, std::string_view name,
                      std::chrono::milliseconds& out, std::int64_t min = 0) {
  std::int64_t ms = 0;
  if (!read_flag(arg, name, ms, min)) return false;
  out = std::chrono::milliseconds(ms);
  return true;
}

}  // namespace syn::util
