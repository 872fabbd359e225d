#include "ais/nmea.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "ais/bit_buffer.h"
#include "common/failpoint.h"
#include "obs/metrics.h"

namespace pol::ais {
namespace {

// Payload armouring (IEC 61162-1): 6-bit value -> printable character.
char ArmorChar(uint8_t value) {
  return static_cast<char>(value < 40 ? value + 48 : value + 56);
}

// Inverse armouring; returns 0xff for characters outside the alphabet.
uint8_t UnarmorChar(char c) {
  const int v = static_cast<unsigned char>(c);
  if (v >= 48 && v < 88) return static_cast<uint8_t>(v - 48);
  if (v >= 96 && v < 120) return static_cast<uint8_t>(v - 56);
  return 0xff;
}

std::string FormatSentence(int total, int number, int sequence_id,
                           const std::string& payload, int fill_bits) {
  char seq[4] = "";
  if (total > 1) std::snprintf(seq, sizeof(seq), "%d", sequence_id);
  char body[128];
  std::snprintf(body, sizeof(body), "AIVDM,%d,%d,%s,A,%s,%d", total, number,
                seq, payload.c_str(), fill_bits);
  char sentence[160];
  std::snprintf(sentence, sizeof(sentence), "!%s*%02X", body,
                NmeaChecksum(body));
  return sentence;
}

// Quantization helpers per ITU-R M.1371 field resolutions.
int64_t QuantizeLng(double lng_deg) {
  return static_cast<int64_t>(std::llround(lng_deg * 600000.0));
}
int64_t QuantizeLat(double lat_deg) {
  return static_cast<int64_t>(std::llround(lat_deg * 600000.0));
}
uint64_t QuantizeSog(double sog_knots) {
  return static_cast<uint64_t>(std::llround(sog_knots * 10.0));
}
uint64_t QuantizeCog(double cog_deg) {
  return static_cast<uint64_t>(std::llround(cog_deg * 10.0));
}

void WriteCommonPositionFields(BitWriter& writer,
                               const PositionReport& report) {
  writer.WriteUint(QuantizeSog(report.sog_knots), 10);
  writer.WriteUint(0, 1);  // Position accuracy.
  writer.WriteInt(QuantizeLng(report.lng_deg), 28);
  writer.WriteInt(QuantizeLat(report.lat_deg), 27);
  writer.WriteUint(QuantizeCog(report.cog_deg), 12);
  const uint64_t heading =
      report.heading_deg == kHeadingUnavailable
          ? 511
          : static_cast<uint64_t>(std::llround(report.heading_deg)) % 360;
  writer.WriteUint(heading, 9);
  writer.WriteUint(static_cast<uint64_t>(report.timestamp % 60), 6);
}

}  // namespace

uint8_t NmeaChecksum(std::string_view body) {
  uint8_t checksum = 0;
  for (const char c : body) checksum ^= static_cast<uint8_t>(c);
  return checksum;
}

Result<std::string> EncodePositionNmea(const PositionReport& report) {
  POL_RETURN_IF_ERROR(ValidatePositionReport(report));
  BitWriter writer;
  writer.WriteUint(report.message_type, 6);
  writer.WriteUint(0, 2);  // Repeat indicator.
  writer.WriteUint(report.mmsi, 30);
  if (report.message_type == 18) {
    writer.WriteUint(0, 8);  // Regional reserved.
    WriteCommonPositionFields(writer, report);
    writer.WriteUint(0, 2);   // Regional reserved.
    writer.WriteUint(1, 1);   // CS unit (carrier sense).
    writer.WriteUint(0, 1);   // Display flag.
    writer.WriteUint(0, 1);   // DSC flag.
    writer.WriteUint(1, 1);   // Band flag.
    writer.WriteUint(0, 1);   // Message 22 flag.
    writer.WriteUint(0, 1);   // Assigned mode.
    writer.WriteUint(0, 1);   // RAIM.
    writer.WriteUint(0, 20);  // Radio status.
  } else {
    writer.WriteUint(static_cast<uint64_t>(report.nav_status), 4);
    writer.WriteInt(-128, 8);  // Rate of turn: not available.
    WriteCommonPositionFields(writer, report);
    writer.WriteUint(0, 2);   // Manoeuvre indicator.
    writer.WriteUint(0, 3);   // Spare.
    writer.WriteUint(0, 1);   // RAIM.
    writer.WriteUint(0, 19);  // Radio status.
  }
  int fill_bits = 0;
  const std::vector<uint8_t> symbols = writer.ToSixBitSymbols(&fill_bits);
  std::string payload;
  payload.reserve(symbols.size());
  for (const uint8_t s : symbols) payload.push_back(ArmorChar(s));
  return FormatSentence(1, 1, 0, payload, fill_bits);
}

Result<std::vector<std::string>> EncodeStaticVoyageNmea(
    const StaticVoyageReport& report, int sequence_id) {
  if (!IsPlausibleMmsi(report.mmsi)) {
    return Status::InvalidArgument("implausible MMSI");
  }
  if (sequence_id < 0 || sequence_id > 9) {
    return Status::InvalidArgument("sequence id outside [0, 9]");
  }
  BitWriter writer;
  writer.WriteUint(5, 6);
  writer.WriteUint(0, 2);  // Repeat indicator.
  writer.WriteUint(report.mmsi, 30);
  writer.WriteUint(0, 2);  // AIS version.
  writer.WriteUint(report.imo_number, 30);
  writer.WriteString6(report.callsign, 7);
  writer.WriteString6(report.name, 20);
  writer.WriteUint(report.ship_type_code, 8);
  writer.WriteUint(static_cast<uint64_t>(report.to_bow), 9);
  writer.WriteUint(static_cast<uint64_t>(report.to_stern), 9);
  writer.WriteUint(static_cast<uint64_t>(report.to_port), 6);
  writer.WriteUint(static_cast<uint64_t>(report.to_starboard), 6);
  writer.WriteUint(1, 4);  // Fix type: GPS.
  writer.WriteUint(static_cast<uint64_t>(report.eta_month), 4);
  writer.WriteUint(static_cast<uint64_t>(report.eta_day), 5);
  writer.WriteUint(static_cast<uint64_t>(report.eta_hour), 5);
  writer.WriteUint(static_cast<uint64_t>(report.eta_minute), 6);
  writer.WriteUint(static_cast<uint64_t>(std::llround(report.draught_m * 10)),
                   8);
  writer.WriteString6(report.destination, 20);
  writer.WriteUint(0, 1);  // DTE.
  writer.WriteUint(0, 1);  // Spare.

  int fill_bits = 0;
  const std::vector<uint8_t> symbols = writer.ToSixBitSymbols(&fill_bits);
  // Conventional split: at most 60 payload characters per sentence.
  constexpr size_t kMaxPayload = 60;
  const int total =
      static_cast<int>((symbols.size() + kMaxPayload - 1) / kMaxPayload);
  std::vector<std::string> sentences;
  for (int part = 0; part < total; ++part) {
    const size_t begin = static_cast<size_t>(part) * kMaxPayload;
    const size_t end = std::min(symbols.size(), begin + kMaxPayload);
    std::string payload;
    payload.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) payload.push_back(ArmorChar(symbols[i]));
    const int part_fill = (part == total - 1) ? fill_bits : 0;
    sentences.push_back(
        FormatSentence(total, part + 1, sequence_id, payload, part_fill));
  }
  return sentences;
}

namespace {

std::string ArmorToSentence(const BitWriter& writer) {
  int fill_bits = 0;
  const std::vector<uint8_t> symbols = writer.ToSixBitSymbols(&fill_bits);
  std::string payload;
  payload.reserve(symbols.size());
  for (const uint8_t s : symbols) payload.push_back(ArmorChar(s));
  return FormatSentence(1, 1, 0, payload, fill_bits);
}

}  // namespace

Result<std::string> EncodeExtendedClassBNmea(
    const PositionReport& position, const ClassBStaticReport& statics) {
  PositionReport validated = position;
  validated.message_type = 18;  // Reuse the class B validation rules.
  POL_RETURN_IF_ERROR(ValidatePositionReport(validated));
  BitWriter writer;
  writer.WriteUint(19, 6);
  writer.WriteUint(0, 2);  // Repeat indicator.
  writer.WriteUint(position.mmsi, 30);
  writer.WriteUint(0, 8);  // Regional reserved.
  WriteCommonPositionFields(writer, position);
  writer.WriteUint(0, 4);  // Regional reserved.
  writer.WriteString6(statics.name, 20);
  writer.WriteUint(statics.ship_type_code, 8);
  writer.WriteUint(static_cast<uint64_t>(statics.to_bow), 9);
  writer.WriteUint(static_cast<uint64_t>(statics.to_stern), 9);
  writer.WriteUint(static_cast<uint64_t>(statics.to_port), 6);
  writer.WriteUint(static_cast<uint64_t>(statics.to_starboard), 6);
  writer.WriteUint(1, 4);  // Fix type: GPS.
  writer.WriteUint(0, 1);  // RAIM.
  writer.WriteUint(0, 1);  // DTE.
  writer.WriteUint(0, 1);  // Assigned mode.
  writer.WriteUint(0, 4);  // Spare.
  return ArmorToSentence(writer);
}

Result<std::string> EncodeBaseStationNmea(const BaseStationReport& report) {
  if (!IsPlausibleMmsi(report.mmsi)) {
    return Status::InvalidArgument("implausible MMSI");
  }
  BitWriter writer;
  writer.WriteUint(4, 6);
  writer.WriteUint(0, 2);
  writer.WriteUint(report.mmsi, 30);
  writer.WriteUint(static_cast<uint64_t>(report.year), 14);
  writer.WriteUint(static_cast<uint64_t>(report.month), 4);
  writer.WriteUint(static_cast<uint64_t>(report.day), 5);
  writer.WriteUint(static_cast<uint64_t>(report.hour), 5);
  writer.WriteUint(static_cast<uint64_t>(report.minute), 6);
  writer.WriteUint(static_cast<uint64_t>(report.second), 6);
  writer.WriteUint(0, 1);  // Accuracy.
  writer.WriteInt(QuantizeLng(report.lng_deg), 28);
  writer.WriteInt(QuantizeLat(report.lat_deg), 27);
  writer.WriteUint(7, 4);   // Fix type: surveyed.
  writer.WriteUint(0, 10);  // Spare.
  writer.WriteUint(0, 1);   // RAIM.
  writer.WriteUint(0, 19);  // Radio status.
  return ArmorToSentence(writer);
}

Result<std::string> EncodeClassBStaticNmea(const ClassBStaticReport& report) {
  if (!IsPlausibleMmsi(report.mmsi)) {
    return Status::InvalidArgument("implausible MMSI");
  }
  if (report.part != 0 && report.part != 1) {
    return Status::InvalidArgument("part must be 0 (A) or 1 (B)");
  }
  BitWriter writer;
  writer.WriteUint(24, 6);
  writer.WriteUint(0, 2);
  writer.WriteUint(report.mmsi, 30);
  writer.WriteUint(static_cast<uint64_t>(report.part), 2);
  if (report.part == 0) {
    writer.WriteString6(report.name, 20);
  } else {
    writer.WriteUint(report.ship_type_code, 8);
    writer.WriteString6("", 7);  // Vendor id.
    writer.WriteString6(report.callsign, 7);
    writer.WriteUint(static_cast<uint64_t>(report.to_bow), 9);
    writer.WriteUint(static_cast<uint64_t>(report.to_stern), 9);
    writer.WriteUint(static_cast<uint64_t>(report.to_port), 6);
    writer.WriteUint(static_cast<uint64_t>(report.to_starboard), 6);
    writer.WriteUint(0, 6);  // Spare.
  }
  return ArmorToSentence(writer);
}

Result<Decoded> NmeaDecoder::Feed(std::string_view sentence) {
  const uint64_t sequence = ++fed_;
  const Status injected = POL_FAILPOINT("ingest.nmea");
  Result<Decoded> result =
      injected.ok() ? FeedInternal(sentence) : Result<Decoded>(injected);
  if (!result.ok() && quarantine_ != nullptr) {
    quarantine_->Record("ingest.nmea", result.status(), sentence, sequence);
  }
  // Feed is the per-sentence hot path: resolve the handles once per
  // process, then recording is relaxed atomics only.
  static obs::Counter* const sentences =
      obs::Registry::Global().counter("ingest.nmea.sentences");
  static obs::Counter* const errors =
      obs::Registry::Global().counter("ingest.nmea.errors");
  static obs::Counter* const messages =
      obs::Registry::Global().counter("ingest.nmea.messages");
  sentences->Increment();
  if (!result.ok()) {
    errors->Increment();
  } else if (result->message_type != 0) {
    messages->Increment();
  }
  return result;
}

Result<Decoded> NmeaDecoder::FeedInternal(std::string_view sentence) {
  // Frame: !AIVDM,<total>,<num>,<seq>,<chan>,<payload>,<fill>*<checksum>
  if (sentence.size() < 16 || sentence[0] != '!') {
    return Status::InvalidArgument("not an NMEA sentence");
  }
  const size_t star = sentence.rfind('*');
  if (star == std::string_view::npos || star + 3 > sentence.size()) {
    return Status::Corruption("missing checksum");
  }
  const std::string_view body = sentence.substr(1, star - 1);
  unsigned int declared = 0;
  if (std::sscanf(std::string(sentence.substr(star + 1, 2)).c_str(), "%2x",
                  &declared) != 1 ||
      declared != NmeaChecksum(body)) {
    return Status::Corruption("checksum mismatch");
  }

  // Split the body on commas.
  std::vector<std::string_view> fields;
  size_t start = 0;
  for (size_t i = 0; i <= body.size(); ++i) {
    if (i == body.size() || body[i] == ',') {
      fields.push_back(body.substr(start, i - start));
      start = i + 1;
    }
  }
  if (fields.size() != 7) return Status::Corruption("wrong field count");
  if (fields[0] != "AIVDM" && fields[0] != "AIVDO") {
    return Status::InvalidArgument("not an AIVDM/AIVDO sentence");
  }
  const int total = std::atoi(std::string(fields[1]).c_str());
  const int number = std::atoi(std::string(fields[2]).c_str());
  const int fill_bits = std::atoi(std::string(fields[6]).c_str());
  if (total < 1 || total > 9 || number < 1 || number > total ||
      fill_bits < 0 || fill_bits > 5) {
    return Status::Corruption("bad sentence numbering");
  }

  std::vector<uint8_t> symbols;
  symbols.reserve(fields[5].size());
  for (const char c : fields[5]) {
    const uint8_t v = UnarmorChar(c);
    if (v == 0xff) return Status::Corruption("bad payload character");
    symbols.push_back(v);
  }

  if (total == 1) return DecodePayload(symbols, fill_bits);

  // Multi-sentence assembly keyed by (sequence id, channel).
  const std::string key =
      std::string(fields[3]) + "/" + std::string(fields[4]);
  Pending& pending = pending_[key];
  if (pending.total == 0) {
    pending.total = total;
    pending.parts.assign(static_cast<size_t>(total), {});
  } else if (pending.total != total) {
    pending_.erase(key);
    return Status::Corruption("inconsistent part count");
  }
  auto& slot = pending.parts[static_cast<size_t>(number - 1)];
  if (slot.empty()) ++pending.received;
  slot = std::move(symbols);
  if (number == total) pending.last_fill_bits = fill_bits;
  if (pending.received < pending.total) {
    return Decoded{};  // message_type == 0: waiting for more parts.
  }
  std::vector<uint8_t> assembled;
  for (const auto& part : pending.parts) {
    assembled.insert(assembled.end(), part.begin(), part.end());
  }
  const int final_fill = pending.last_fill_bits;
  pending_.erase(key);
  return DecodePayload(assembled, final_fill);
}

Result<Decoded> NmeaDecoder::DecodePayload(const std::vector<uint8_t>& symbols,
                                           int fill_bits) {
  BitReader reader = BitReader::FromSixBitSymbols(symbols, fill_bits);
  bool ok = true;
  const int type = static_cast<int>(reader.ReadUint(6, &ok));
  if (!ok) return Status::Corruption("empty payload");

  Decoded decoded;
  decoded.message_type = type;
  if (type == 19) {
    PositionReport& report = decoded.position;
    ClassBStaticReport& statics = decoded.class_b_static;
    report.message_type = 19;
    report.nav_status = NavStatus::kNotDefined;
    reader.ReadUint(2, &ok);  // Repeat indicator.
    report.mmsi = static_cast<Mmsi>(reader.ReadUint(30, &ok));
    statics.mmsi = report.mmsi;
    reader.ReadUint(8, &ok);  // Regional reserved.
    report.sog_knots = static_cast<double>(reader.ReadUint(10, &ok)) / 10.0;
    reader.ReadUint(1, &ok);  // Accuracy.
    report.lng_deg = static_cast<double>(reader.ReadInt(28, &ok)) / 600000.0;
    report.lat_deg = static_cast<double>(reader.ReadInt(27, &ok)) / 600000.0;
    report.cog_deg = static_cast<double>(reader.ReadUint(12, &ok)) / 10.0;
    const uint64_t heading = reader.ReadUint(9, &ok);
    report.heading_deg = heading == 511 ? kHeadingUnavailable
                                        : static_cast<double>(heading);
    report.timestamp = static_cast<UnixSeconds>(reader.ReadUint(6, &ok));
    reader.ReadUint(4, &ok);  // Regional reserved.
    statics.name = reader.ReadString6(20, &ok);
    statics.ship_type_code = static_cast<uint8_t>(reader.ReadUint(8, &ok));
    statics.to_bow = static_cast<int>(reader.ReadUint(9, &ok));
    statics.to_stern = static_cast<int>(reader.ReadUint(9, &ok));
    statics.to_port = static_cast<int>(reader.ReadUint(6, &ok));
    statics.to_starboard = static_cast<int>(reader.ReadUint(6, &ok));
    if (!ok) return Status::Corruption("truncated type 19 payload");
    return decoded;
  }
  if (type == 1 || type == 2 || type == 3 || type == 18) {
    PositionReport& report = decoded.position;
    report.message_type = static_cast<uint8_t>(type);
    reader.ReadUint(2, &ok);  // Repeat indicator.
    report.mmsi = static_cast<Mmsi>(reader.ReadUint(30, &ok));
    if (type == 18) {
      reader.ReadUint(8, &ok);  // Regional reserved.
      report.nav_status = NavStatus::kNotDefined;
    } else {
      report.nav_status = static_cast<NavStatus>(reader.ReadUint(4, &ok));
      reader.ReadInt(8, &ok);  // Rate of turn.
    }
    report.sog_knots = static_cast<double>(reader.ReadUint(10, &ok)) / 10.0;
    reader.ReadUint(1, &ok);  // Accuracy.
    report.lng_deg = static_cast<double>(reader.ReadInt(28, &ok)) / 600000.0;
    report.lat_deg = static_cast<double>(reader.ReadInt(27, &ok)) / 600000.0;
    report.cog_deg = static_cast<double>(reader.ReadUint(12, &ok)) / 10.0;
    const uint64_t heading = reader.ReadUint(9, &ok);
    report.heading_deg = heading == 511 ? kHeadingUnavailable
                                        : static_cast<double>(heading);
    report.timestamp =
        static_cast<UnixSeconds>(reader.ReadUint(6, &ok));  // UTC second.
    if (!ok) return Status::Corruption("truncated position payload");
    return decoded;
  }
  if (type == 5) {
    StaticVoyageReport& report = decoded.static_voyage;
    reader.ReadUint(2, &ok);  // Repeat indicator.
    report.mmsi = static_cast<Mmsi>(reader.ReadUint(30, &ok));
    reader.ReadUint(2, &ok);  // AIS version.
    report.imo_number = static_cast<uint32_t>(reader.ReadUint(30, &ok));
    report.callsign = reader.ReadString6(7, &ok);
    report.name = reader.ReadString6(20, &ok);
    report.ship_type_code = static_cast<uint8_t>(reader.ReadUint(8, &ok));
    report.to_bow = static_cast<int>(reader.ReadUint(9, &ok));
    report.to_stern = static_cast<int>(reader.ReadUint(9, &ok));
    report.to_port = static_cast<int>(reader.ReadUint(6, &ok));
    report.to_starboard = static_cast<int>(reader.ReadUint(6, &ok));
    reader.ReadUint(4, &ok);  // Fix type.
    report.eta_month = static_cast<int>(reader.ReadUint(4, &ok));
    report.eta_day = static_cast<int>(reader.ReadUint(5, &ok));
    report.eta_hour = static_cast<int>(reader.ReadUint(5, &ok));
    report.eta_minute = static_cast<int>(reader.ReadUint(6, &ok));
    report.draught_m = static_cast<double>(reader.ReadUint(8, &ok)) / 10.0;
    report.destination = reader.ReadString6(20, &ok);
    if (!ok) return Status::Corruption("truncated static payload");
    return decoded;
  }
  if (type == 4) {
    BaseStationReport& report = decoded.base_station;
    reader.ReadUint(2, &ok);  // Repeat indicator.
    report.mmsi = static_cast<Mmsi>(reader.ReadUint(30, &ok));
    report.year = static_cast<int>(reader.ReadUint(14, &ok));
    report.month = static_cast<int>(reader.ReadUint(4, &ok));
    report.day = static_cast<int>(reader.ReadUint(5, &ok));
    report.hour = static_cast<int>(reader.ReadUint(5, &ok));
    report.minute = static_cast<int>(reader.ReadUint(6, &ok));
    report.second = static_cast<int>(reader.ReadUint(6, &ok));
    reader.ReadUint(1, &ok);  // Accuracy.
    report.lng_deg = static_cast<double>(reader.ReadInt(28, &ok)) / 600000.0;
    report.lat_deg = static_cast<double>(reader.ReadInt(27, &ok)) / 600000.0;
    if (!ok) return Status::Corruption("truncated base station payload");
    return decoded;
  }
  if (type == 24) {
    ClassBStaticReport& report = decoded.class_b_static;
    reader.ReadUint(2, &ok);  // Repeat indicator.
    report.mmsi = static_cast<Mmsi>(reader.ReadUint(30, &ok));
    report.part = static_cast<int>(reader.ReadUint(2, &ok));
    if (!ok) return Status::Corruption("truncated type 24 header");
    if (report.part == 0) {
      report.name = reader.ReadString6(20, &ok);
    } else if (report.part == 1) {
      report.ship_type_code = static_cast<uint8_t>(reader.ReadUint(8, &ok));
      reader.ReadString6(7, &ok);  // Vendor id.
      report.callsign = reader.ReadString6(7, &ok);
      report.to_bow = static_cast<int>(reader.ReadUint(9, &ok));
      report.to_stern = static_cast<int>(reader.ReadUint(9, &ok));
      report.to_port = static_cast<int>(reader.ReadUint(6, &ok));
      report.to_starboard = static_cast<int>(reader.ReadUint(6, &ok));
    } else {
      return Status::Corruption("bad type 24 part number");
    }
    if (!ok) return Status::Corruption("truncated type 24 payload");
    return decoded;
  }
  ++unsupported_;
  static obs::Counter* const unsupported =
      obs::Registry::Global().counter("ingest.nmea.unsupported");
  unsupported->Increment();
  return decoded;  // Unsupported type: reported, not an error.
}

}  // namespace pol::ais
