// Small string utilities (libstdc++ 12 lacks std::format, so formatting goes
// through a checked snprintf wrapper).
#pragma once

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace dmsched {

/// printf-style formatting into a std::string.
[[gnu::format(printf, 1, 2)]] std::string strformat(const char* fmt, ...);

/// Split on arbitrary whitespace runs; drops empty fields (SWF semantics).
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// Strip leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Parse a signed integer; returns false on any malformed input.
[[nodiscard]] bool parse_i64(std::string_view s, std::int64_t& out);

/// Parse a double; returns false on any malformed input.
[[nodiscard]] bool parse_double(std::string_view s, double& out);

}  // namespace dmsched
