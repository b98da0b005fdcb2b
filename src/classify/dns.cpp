#include "classify/dns.hpp"

#include <cctype>

namespace wlm::classify {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::optional<std::uint16_t> get_u16(std::span<const std::uint8_t> in, std::size_t pos) {
  if (pos + 2 > in.size()) return std::nullopt;
  return static_cast<std::uint16_t>((in[pos] << 8) | in[pos + 1]);
}

/// Reads a (possibly compressed) name starting at `pos`; advances pos past
/// the in-place portion. On failure returns the typed reason and leaves the
/// output name unspecified.
ParseError read_name(std::span<const std::uint8_t> in, std::size_t& pos, std::string& name) {
  name.clear();
  std::size_t p = pos;
  bool jumped = false;
  int hops = 0;
  while (true) {
    if (p >= in.size()) return ParseError::kTruncated;
    const std::uint8_t len = in[p];
    if ((len & 0xC0) == 0xC0) {  // compression pointer
      const auto ptr = get_u16(in, p);
      if (!ptr) return ParseError::kTruncated;
      if (!jumped) pos = p + 2;
      p = *ptr & 0x3FFF;
      jumped = true;
      // Hop bound: self-referential and mutually-referential pointer chains
      // would otherwise spin forever; anything deeper than the longest legal
      // name is a loop by construction.
      if (++hops > kDnsMaxPointerHops) return ParseError::kPointerLoop;
      continue;
    }
    if (len == 0) {
      if (!jumped) pos = p + 1;
      break;
    }
    if (len > 63) return ParseError::kBadValue;             // 0x40/0x80 label types
    if (p + 1 + len > in.size()) return ParseError::kBadLength;
    if (!name.empty()) name.push_back('.');
    for (std::size_t i = 0; i < len; ++i) {
      name.push_back(static_cast<char>(std::tolower(in[p + 1 + i])));
    }
    p += 1 + len;
  }
  return ParseError::kNone;
}

}  // namespace

void encode_dns_query_into(std::uint16_t id, std::string_view qname,
                           std::vector<std::uint8_t>& out) {
  out.clear();
  put_u16(out, id);
  put_u16(out, 0x0100);  // flags: standard query, RD
  put_u16(out, 1);       // QDCOUNT
  put_u16(out, 0);       // ANCOUNT
  put_u16(out, 0);       // NSCOUNT
  put_u16(out, 0);       // ARCOUNT
  // QNAME as length-prefixed labels.
  std::size_t start = 0;
  std::size_t total = 0;
  while (start < qname.size() && total < 255) {
    std::size_t dot = qname.find('.', start);
    if (dot == std::string_view::npos) dot = qname.size();
    std::size_t len = dot - start;
    if (len > 63) len = 63;
    if (len > 0) {
      out.push_back(static_cast<std::uint8_t>(len));
      for (std::size_t i = 0; i < len; ++i) {
        out.push_back(static_cast<std::uint8_t>(std::tolower(qname[start + i])));
      }
      total += len + 1;
    }
    start = dot + 1;
  }
  out.push_back(0);
  put_u16(out, 1);  // QTYPE A
  put_u16(out, 1);  // QCLASS IN
}

ParseError parse_dns_into(std::span<const std::uint8_t> packet, DnsMessage& out) {
  if (packet.size() < 12) return ParseError::kTruncated;
  out.id = *get_u16(packet, 0);
  const std::uint16_t flags = *get_u16(packet, 2);
  out.is_response = (flags & 0x8000) != 0;
  const std::uint16_t qdcount = *get_u16(packet, 4);
  out.answer_count = *get_u16(packet, 6);
  std::size_t pos = 12;
  // Question slots (and the qname strings inside them) are overwritten in
  // place so a reused message keeps its allocations across packets.
  std::size_t used = 0;
  for (std::uint16_t q = 0; q < qdcount; ++q) {
    if (used == out.questions.size()) out.questions.emplace_back();
    DnsQuestion& question = out.questions[used];
    if (const ParseError err = read_name(packet, pos, question.qname); err != ParseError::kNone) {
      return err;
    }
    const auto qtype = get_u16(packet, pos);
    const auto qclass = get_u16(packet, pos + 2);
    if (!qtype || !qclass) return ParseError::kTruncated;
    pos += 4;
    question.qtype = *qtype;
    question.qclass = *qclass;
    ++used;
  }
  if (out.questions.size() > used) out.questions.resize(used);
  return ParseError::kNone;
}

}  // namespace wlm::classify
