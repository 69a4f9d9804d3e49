//===- server/Protocol.h - The fgcd wire protocol ---------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line-delimited JSON request/response protocol spoken by `fgcd`
/// over Unix sockets and stdio.  **docs/PROTOCOL.md is the normative
/// spec** — every method, field, and error code implemented here is
/// documented there, and the doc-lint CI step keeps the examples
/// honest.  One request object per line in, one response object per
/// line out, in order:
///
///   {"id":1,"method":"check","params":{"source":"iadd(1,2)"}}
///   {"id":1,"ok":true,"result":{"success":true,"type":"int","cached":false}}
///
/// Malformed lines and unknown methods are *protocol errors*
/// (`ok:false` with a code); programs that fail to typecheck are
/// *results* (`ok:true`, `result.success:false` with diagnostics) —
/// a compiler service reporting a type error is doing its job.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SERVER_PROTOCOL_H
#define FG_SERVER_PROTOCOL_H

#include "server/Session.h"
#include <string>

namespace fg {
namespace server {

/// Protocol revision; bumped only on incompatible changes (see the
/// compatibility policy in docs/PROTOCOL.md).
inline constexpr int ProtocolVersion = 2;

/// Stateless translator between protocol lines and one Session.
class Protocol {
public:
  explicit Protocol(Session &S) : S(S) {}

  struct Reply {
    std::string Line;      ///< One serialized response object.
    bool Shutdown = false; ///< The request asked the server to stop.
  };

  /// Handles one request line (without its trailing newline).
  Reply handleLine(const std::string &Line);

private:
  Session &S;
};

} // namespace server
} // namespace fg

#endif // FG_SERVER_PROTOCOL_H
