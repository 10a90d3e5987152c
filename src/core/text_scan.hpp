// Shared zero-allocation text scanning, and the program's one numeric
// parser.
//
// Every text format in the pipeline (SNAP, MatrixMarket-like mtx,
// GraphBIG csv, PowerGraph tsv, Ligra adj) is line-oriented with
// whitespace- or single-character-delimited numeric fields. This header
// gives them one tokenizer built on std::from_chars: no locale, no
// allocation per token, and malformed numerics raise a typed ParseError
// instead of silently defaulting the field. try_parse<T>/parse<T> are
// also the only text-to-number conversion anywhere else in src/: PhaseLog
// lines, CSV records, the journal, the isolation payload, CLI flags,
// fault specs, serve requests and the /proc and sysfs readers.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/error.hpp"
#include "core/types.hpp"

namespace epgs::text {

[[nodiscard]] inline bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r';
}

/// Iterate '\n'-separated lines of an in-memory document ('\r' is left on
/// the line; the token helpers treat it as whitespace). Tracks the
/// 1-based line number for error messages.
class LineScanner {
 public:
  explicit LineScanner(std::string_view txt) : text_(txt) {}

  /// Advance to the next line; false at end of input.
  bool next(std::string_view& line) {
    if (pos_ >= text_.size()) return false;
    ++line_no_;
    const std::size_t eol = text_.find('\n', pos_);
    if (eol == std::string_view::npos) {
      line = text_.substr(pos_);
      pos_ = text_.size();
    } else {
      line = text_.substr(pos_, eol - pos_);
      pos_ = eol + 1;
    }
    return true;
  }

  [[nodiscard]] std::size_t line_no() const { return line_no_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
};

/// Consume and return the next whitespace-delimited token (empty at end
/// of line).
[[nodiscard]] inline std::string_view next_token(std::string_view& line) {
  while (!line.empty() && is_space(line.front())) line.remove_prefix(1);
  std::size_t i = 0;
  while (i < line.size() && !is_space(line[i])) ++i;
  const std::string_view tok = line.substr(0, i);
  line.remove_prefix(i);
  return tok;
}

/// Consume and return the next field up to `delim` (for csv/tsv rows
/// where empty fields are meaningful). The delimiter is consumed.
[[nodiscard]] inline std::string_view next_field(std::string_view& line,
                                                 char delim) {
  const std::size_t i = line.find(delim);
  std::string_view field =
      line.substr(0, i == std::string_view::npos ? line.size() : i);
  line.remove_prefix(i == std::string_view::npos ? line.size() : i + 1);
  // A trailing '\r' on the last field of a CRLF line is not data.
  while (!field.empty() && field.back() == '\r') field.remove_suffix(1);
  return field;
}

/// `line_no` 0 means the caller has no line context (e.g. one CSV row
/// handed over on its own); the message then omits it. Kept out of line
/// so parse<T>'s success path stays a compare and a branch.
[[noreturn, gnu::cold, gnu::noinline]] inline void fail(
    std::string_view context, std::string_view what, std::string_view tok,
    std::size_t line_no) {
  std::string msg = std::string(context) + ": bad " + std::string(what) +
                    " '" + std::string(tok) + "'";
  if (line_no != 0) msg += " on line " + std::to_string(line_no);
  throw ParseError(msg);
}

/// The one text-to-number conversion in the program. Strict: `tok` must
/// be non-empty and std::from_chars must consume all of it, so leading
/// whitespace, '+', "0x" and trailing junk are rejected, a '-' on an
/// unsigned type is rejected, and an out-of-range value is nullopt.
/// Floating-point types take from_chars' general grammar (decimal or
/// exponent form, "nan", "-nan", "inf"); `base` applies to integers only.
template <class T>
[[nodiscard]] std::optional<T> try_parse(std::string_view tok,
                                         int base = 10) noexcept {
  if (tok.empty()) return std::nullopt;
  T v{};
  const char* const end = tok.data() + tok.size();
  std::from_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(tok.data(), end, v);
  } else {
    r = std::from_chars(tok.data(), end, v, base);
  }
  if (r.ec != std::errc{} || r.ptr != end) return std::nullopt;
  return v;
}

/// try_parse<T> for callers whose bad input is an error: throws
/// ParseError naming `context`, the field `what`, the token and the line.
template <class T>
[[nodiscard]] T parse(std::string_view tok, std::string_view context,
                      std::string_view what, std::size_t line_no) {
  if (const std::optional<T> v = try_parse<T>(tok)) [[likely]] return *v;
  fail(context, what, tok, line_no);
}

/// Vertex-id parse with the 32-bit range check shared by every reader.
[[nodiscard]] inline vid_t parse_vid(std::string_view tok,
                                     std::string_view context,
                                     std::size_t line_no) {
  const auto v = parse<std::uint64_t>(tok, context, "vertex id", line_no);
  EPGS_CHECK(v <= 0xFFFFFFFEULL, "vertex id exceeds 32-bit range");
  return static_cast<vid_t>(v);
}

}  // namespace epgs::text
