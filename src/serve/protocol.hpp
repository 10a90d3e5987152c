// The epg query wire protocol: length-prefixed text frames over a Unix-
// domain socket.
//
// Frame layout (everything ASCII, so a truncated or corrupted stream is
// diagnosable with `xxd`):
//
//   "EPGQ" + 8 lowercase hex digits (payload byte count) + payload
//
// A request payload is one line of text: a verb, then space-separated
// key=value pairs for `run`:
//
//   ping
//   stats
//   shutdown
//   run system=GAP algorithm=PageRank kind=kron scale=10 roots=2 ...
//
// A reply payload is a status line, then an optional body after the first
// newline:
//
//   ok <verb>\n<body>
//   error <kind> <message>
//
// A `run` reply's body is the CSV `epg run` writes for the same sweep,
// row for row. When the request ran on a system an earlier request built
// (the graph store keeps them), the rows of the work it skipped — the
// build, and the file read on the native-file path — carry the counters
// of the request that paid for them and `seconds` 0.
//
// Error kinds are the protocol's typed failure taxonomy — `protocol`
// (malformed frame or request), `overloaded` (admission control rejected
// the request), `deadline` (deadline_ms expired), `config` (valid frame,
// unrunnable spec), `shutdown` (server stopping), `internal`. Parsers are
// strict: every number goes through text::try_parse/parse and an unknown
// key, verb, or garbage value is a typed ProtocolError, never a silently
// defaulted field.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/error.hpp"
#include "harness/experiment.hpp"

namespace epgs::serve {

/// A malformed frame or request: bad magic, an unparseable or oversized
/// length prefix, a truncated payload, an unknown verb or key, or a value
/// that fails strict numeric parsing. The server maps these to an
/// `error protocol` reply and keeps serving.
class ProtocolError : public EpgsError {
 public:
  using EpgsError::EpgsError;
};

/// Frames larger than this are rejected before any allocation: the
/// length prefix is attacker-controlled input on a shared socket.
inline constexpr std::uint64_t kMaxFrameBytes = 4ull << 20;

/// Serialize a payload into a frame (header + payload). Throws
/// ProtocolError when the payload exceeds kMaxFrameBytes.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Write one frame to `fd`, handling short writes and EINTR. Throws
/// IoError when the peer is gone.
void write_frame(int fd, std::string_view payload);

/// Read one frame from `fd`. Returns std::nullopt on clean EOF at a frame
/// boundary (the peer closed after its last request); throws
/// ProtocolError on bad magic, a non-hex or oversized length, or EOF in
/// the middle of a frame; throws IoError on a read error.
[[nodiscard]] std::optional<std::string> read_frame(int fd);

/// What a request asks the server to do.
enum class Verb { kPing, kStats, kShutdown, kRun };

/// One graph-query request. The graph/system/algorithm fields mirror what
/// `epg run` accepts, so a served request and a one-shot sweep describe
/// work in exactly the same vocabulary.
struct Request {
  Verb verb = Verb::kPing;
  harness::GraphSpec graph;          ///< run only
  std::string system;                ///< run only; registry name
  harness::Algorithm algorithm = harness::Algorithm::kBfs;
  int roots = 1;
  int threads = 0;                   ///< 0 = all available
  std::int64_t deadline_ms = 0;      ///< 0 = no deadline
};

/// Parse a request payload. Throws ProtocolError on an unknown verb,
/// unknown key, duplicate key, missing required key (`run` needs system
/// and algorithm), or malformed value.
[[nodiscard]] Request parse_request(std::string_view payload);

/// Render a request back to its payload text (client side).
[[nodiscard]] std::string render_request(const Request& req);

/// Typed reply status. kOk carries a body; everything else carries a
/// message.
enum class ReplyKind {
  kOk,
  kProtocol,
  kOverloaded,
  kDeadline,
  kConfig,
  kShutdown,
  kInternal,
};

[[nodiscard]] std::string_view reply_kind_name(ReplyKind k);

struct Reply {
  ReplyKind kind = ReplyKind::kOk;
  std::string verb;     ///< echo of the request verb (ok replies)
  std::string body;     ///< CSV / stats text (ok) or message (errors)
};

/// Render a reply into its payload text.
[[nodiscard]] std::string render_reply(const Reply& reply);

/// Parse a reply payload (client side). Throws ProtocolError on a
/// malformed status line or unknown kind.
[[nodiscard]] Reply parse_reply(std::string_view payload);

/// Client convenience: connect to the Unix-domain socket at `path`, send
/// one request payload, read one reply frame. Throws IoError when the
/// server is unreachable, ProtocolError on a malformed reply.
[[nodiscard]] Reply query_server(const std::string& socket_path,
                                 std::string_view request_payload);

}  // namespace epgs::serve
