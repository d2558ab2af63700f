#include "dist/worker.hpp"

#include <array>
#include <exception>
#include <utility>

namespace cscv::dist {

ShardWorker::ShardWorker(WorkerOptions options)
    : options_(std::move(options)),
      listener_(net::ListenSocket::bind_tcp(options_.host, options_.port)) {}

void ShardWorker::run() {
  while (!stopping_) {
    net::Socket conn = listener_.accept();
    if (!conn.valid()) break;  // listener shut down — the stop() signal
    if (options_.poll_seconds > 0.0) conn.set_recv_timeout(options_.poll_seconds);
    if (!serve_connection(std::move(conn))) break;
  }
}

void ShardWorker::stop() {
  stopping_ = true;
  // Only wake run(): it may be inside accept() on another thread. The
  // listener closes in the destructor, once no thread can be using it.
  listener_.shutdown();
}

bool ShardWorker::serve_connection(net::Socket conn) {
  FrameParser parser(options_.limits);
  std::array<char, 65536> buf;
  Frame frame;
  for (;;) {
    if (stopping_) return false;
    const std::ptrdiff_t n = conn.read_some(buf.data(), buf.size());
    if (n == 0) return true;  // coordinator went away; await the next one
    if (n < 0) continue;      // poll tick — recheck the stop flag
    parser.append(buf.data(), static_cast<std::size_t>(n));
    try {
      while (parser.next(frame)) {
        if (!handle_frame(conn, frame)) return !stopping_;
      }
    } catch (const ProtocolError& e) {
      // Desynced stream: answer once, drop the connection. Shard state is
      // untouched — the coordinator reconnects and resumes.
      conn.write_all(encode_frame(MsgType::kError, encode_error(e.what())));
      return true;
    } catch (const std::exception& e) {
      // Backstop for non-CheckError escapes from a handler — e.g.
      // bad_alloc/length_error when a well-formed but hostile spec drives
      // build_shard or decode_apply into an oversized allocation. Answer if
      // we still can, drop the connection, keep the daemon serving (the
      // oversized allocation was already unwound, so the small reply is
      // safe; swallow a second failure rather than die).
      try {
        conn.write_all(encode_frame(MsgType::kError, encode_error(e.what())));
      } catch (...) {
      }
      return true;
    }
  }
}

bool ShardWorker::handle_frame(net::Socket& conn, const Frame& frame) {
  switch (frame.type) {
    case MsgType::kPing:
      conn.write_all(encode_frame(MsgType::kPong, frame.payload));
      return true;

    case MsgType::kShutdown:
      stop();
      return false;

    case MsgType::kBuildShard: {
      try {
        const ShardSpec spec = ShardSpec::from_json(util::Json::parse(frame.payload));
        auto it = shards_.find(spec.shard_id);
        if (it == shards_.end() || !(it->second.spec == spec)) {
          Shard shard = build_shard(spec, options_.spill_dir);
          it = shards_.insert_or_assign(spec.shard_id, std::move(shard)).first;
        }
        const Shard& shard = it->second;
        ShardReady ready{shard.spec.shard_id, shard.spec.local_rows(),
                         shard.local_layout.num_cols(), shard.nnz,
                         shard.restored_from_spill, shard.build_seconds};
        conn.write_all(encode_frame(MsgType::kShardReady, ready.to_json().dump()));
      } catch (const util::CheckError& e) {
        conn.write_all(encode_frame(MsgType::kError, encode_error(e.what())));
      }
      return true;
    }

    case MsgType::kApply: {
      try {
        util::AlignedVector<float> in;
        const ApplyHeader header = decode_apply(frame.payload, in);
        const auto it = shards_.find(header.shard_id);
        CSCV_CHECK_MSG(it != shards_.end(),
                       "apply for unknown shard " << header.shard_id);
        util::AlignedVector<float> out;
        apply_shard(it->second, header.op, header.subset, in, out);
        ApplyHeader reply = header;
        reply.count = out.size();
        conn.write_all(encode_frame(MsgType::kApplyResult, encode_apply(reply, out)));
      } catch (const ProtocolError&) {
        throw;  // framing-level damage: handled by serve_connection
      } catch (const util::CheckError& e) {
        conn.write_all(encode_frame(MsgType::kError, encode_error(e.what())));
      }
      return true;
    }

    default:
      // A worker only ever receives coordinator->worker types; anything
      // else is a confused peer.
      conn.write_all(encode_frame(
          MsgType::kError,
          encode_error("unexpected message type " +
                       std::to_string(static_cast<int>(frame.type)))));
      return true;
  }
}

}  // namespace cscv::dist
