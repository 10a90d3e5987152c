// Shared zero-allocation text scanning for the graph file readers.
//
// Every text format in the pipeline (SNAP, MatrixMarket-like mtx,
// GraphBIG csv, PowerGraph tsv, Ligra adj) is line-oriented with
// whitespace- or single-character-delimited numeric fields. This header
// gives them one tokenizer built on std::from_chars, replacing the
// per-line istringstream/sscanf readers: no locale, no allocation per
// token, and malformed numerics raise a typed ParseError instead of
// silently defaulting the field.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

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
/// handed over on its own); the message then omits it.
[[noreturn]] inline void fail(std::string_view context, std::string_view what,
                              std::string_view tok, std::size_t line_no) {
  std::string msg = std::string(context) + ": bad " + std::string(what) +
                    " '" + std::string(tok) + "'";
  if (line_no != 0) msg += " on line " + std::to_string(line_no);
  throw ParseError(msg);
}

/// Strict unsigned parse: the whole token must be a decimal number.
[[nodiscard]] inline std::uint64_t parse_u64(std::string_view tok,
                                             std::string_view context,
                                             std::string_view what,
                                             std::size_t line_no) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (tok.empty() || ec != std::errc{} || ptr != tok.data() + tok.size()) {
    fail(context, what, tok, line_no);
  }
  return v;
}

/// Strict signed parse: the whole token must be a decimal number that
/// fits in an int.
[[nodiscard]] inline int parse_int(std::string_view tok,
                                   std::string_view context,
                                   std::string_view what,
                                   std::size_t line_no) {
  int v = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (tok.empty() || ec != std::errc{} || ptr != tok.data() + tok.size()) {
    fail(context, what, tok, line_no);
  }
  return v;
}

/// Strict floating-point parse (accepts the %g forms our writers emit).
[[nodiscard]] inline double parse_double(std::string_view tok,
                                         std::string_view context,
                                         std::string_view what,
                                         std::size_t line_no) {
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (tok.empty() || ec != std::errc{} || ptr != tok.data() + tok.size()) {
    fail(context, what, tok, line_no);
  }
  return v;
}

/// Vertex-id parse with the 32-bit range check shared by every reader.
[[nodiscard]] inline vid_t parse_vid(std::string_view tok,
                                     std::string_view context,
                                     std::size_t line_no) {
  const std::uint64_t v = parse_u64(tok, context, "vertex id", line_no);
  EPGS_CHECK(v <= 0xFFFFFFFEULL, "vertex id exceeds 32-bit range");
  return static_cast<vid_t>(v);
}

}  // namespace epgs::text
