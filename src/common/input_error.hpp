// The one error type for bad input. Every library validator throws it
// naming the one field it rejects; front ends map field() to what the user
// typed (dmsched-sim maps it to a flag) instead of parsing the message.
// Deriving from std::invalid_argument keeps existing catchers working.
// Program bugs stay DMSCHED_ASSERTs.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace dmsched {

class InputError : public std::invalid_argument {
 public:
  /// `what` is the full diagnostic, conventionally "<field> = <value>, ...".
  InputError(std::string field, const std::string& what)
      : std::invalid_argument(what), field_(std::move(field)) {}

  [[nodiscard]] const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

}  // namespace dmsched
