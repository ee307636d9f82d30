#include "svc/client.h"

#include <stdexcept>

namespace helcfl::svc {

ServiceClient::ServiceClient(const RetryOptions& retry, util::Rng rng,
                             std::uint64_t first_controller_seq)
    : policy_(retry),
      rng_(rng),
      next_controller_seq_(first_controller_seq) {
  if (first_controller_seq == 0) {
    throw std::logic_error(
        "ServiceClient: controller_seq numbering is 1-based (0 means "
        "\"nothing processed yet\" on the service side)");
  }
}

void ServiceClient::send_report(const DeviceReport& report,
                                std::uint64_t now_tick) {
  Pending entry;
  entry.frame = encode_frame(encode(report));
  entry.next_tx_tick = now_tick;
  pending_reports_[{report.device_id, report.report_seq}] = std::move(entry);
}

std::uint64_t ServiceClient::request_decision(std::uint64_t round,
                                              std::uint64_t now_tick) {
  if (pending_request_.has_value()) {
    throw std::logic_error(
        "ServiceClient: a decision request is already outstanding");
  }
  if (decision_.has_value()) {
    throw std::logic_error(
        "ServiceClient: take_decision() before requesting the next one");
  }
  const std::uint64_t seq = next_controller_seq_++;
  DecisionRequest request;
  request.controller_seq = seq;
  request.round = round;
  Pending entry;
  entry.frame = encode_frame(encode(request));
  entry.next_tx_tick = now_tick;
  pending_request_ = std::move(entry);
  pending_request_seq_ = seq;
  return seq;
}

bool ServiceClient::transmit_due(Pending& entry, std::uint64_t now_tick,
                                 std::vector<std::vector<std::uint8_t>>& out) {
  if (entry.next_tx_tick > now_tick) return true;
  if (entry.attempts >= policy_.options().max_attempts) {
    ++exhausted_;
    return false;
  }
  out.push_back(entry.frame);
  ++entry.attempts;
  if (entry.attempts > 1) ++retries_;
  // attempts is now the number of transmissions made; the next one would
  // be retry #attempts, so that is the 1-based backoff index.
  entry.next_tx_tick =
      now_tick + policy_.delay_before_retry(entry.attempts, rng_);
  return true;
}

std::vector<std::vector<std::uint8_t>> ServiceClient::poll(
    std::uint64_t now_tick) {
  std::vector<std::vector<std::uint8_t>> out;
  for (auto it = pending_reports_.begin(); it != pending_reports_.end();) {
    if (transmit_due(it->second, now_tick, out)) {
      ++it;
    } else {
      it = pending_reports_.erase(it);
    }
  }
  if (pending_request_.has_value() &&
      !transmit_due(*pending_request_, now_tick, out)) {
    pending_request_.reset();
  }
  return out;
}

void ServiceClient::deliver(std::span<const std::uint8_t> bytes) {
  std::vector<Frame> frames;
  std::vector<FrameError> errors;
  decode_datagram(bytes, frames, errors);
  frames_rejected_ += errors.size();

  for (const Frame& frame : frames) {
    switch (frame.type) {
      case MsgType::kReportAck: {
        ReportAck ack;
        try {
          ack = decode_report_ack(frame.payload);
        } catch (const util::SerialError&) {
          ++frames_rejected_;
          continue;
        }
        // A duplicate ack finds nothing pending — absorbed here.
        pending_reports_.erase({ack.device_id, ack.report_seq});
        break;
      }
      case MsgType::kDecisionResponse: {
        DecisionResponse response;
        try {
          response = decode_decision_response(frame.payload);
        } catch (const util::SerialError&) {
          ++frames_rejected_;
          continue;
        }
        // A duplicate of an already-completed response, or one for a
        // request that exhausted its budget, is dropped.
        if (pending_request_.has_value() &&
            response.controller_seq == pending_request_seq_) {
          decision_ = std::move(response);
          pending_request_.reset();
        }
        break;
      }
      case MsgType::kDeviceReport:
      case MsgType::kDecisionRequest:
        // Client-to-service traffic reflected back at us.
        ++frames_rejected_;
        break;
    }
  }
}

std::optional<DecisionResponse> ServiceClient::take_decision() {
  std::optional<DecisionResponse> out;
  decision_.swap(out);
  return out;
}

}  // namespace helcfl::svc
