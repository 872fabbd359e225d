#include "core/cell_summary.h"

#include <string>
#include <string_view>
#include <utility>

#include "common/varint.h"

namespace pol::core {

CellSummary::CellSummary()
    : ships_(kSummaryHllPrecision),
      trips_(kSummaryHllPrecision),
      course_bins_(stats::Histogram::ForDegrees30()),
      heading_bins_(stats::Histogram::ForDegrees30()),
      speed_q_(kSummaryTDigestCompression),
      eto_q_(kSummaryTDigestCompression),
      ata_q_(kSummaryTDigestCompression),
      origins_(kSummaryTopNCapacity),
      destinations_(kSummaryTopNCapacity),
      transitions_(kSummaryTopNCapacity) {}

void CellSummary::Add(const PipelineRecord& record) {
  ++record_count_;
  ships_.Add(record.mmsi);
  if (record.trip_id != 0) {
    trips_.Add(record.trip_id);
    eto_.Add(static_cast<double>(record.eto_s));
    eto_q_.Add(static_cast<double>(record.eto_s));
    ata_.Add(static_cast<double>(record.ata_s));
    ata_q_.Add(static_cast<double>(record.ata_s));
    if (record.origin != sim::kNoPort) origins_.Add(record.origin);
    if (record.destination != sim::kNoPort) {
      destinations_.Add(record.destination);
    }
  }
  if (record.sog_knots < ais::kSogUnavailable) {
    speed_.Add(record.sog_knots);
    speed_q_.Add(record.sog_knots);
  }
  if (record.cog_deg < ais::kCogUnavailable) {
    course_mean_.Add(record.cog_deg);
    course_bins_.Add(record.cog_deg);
  }
  if (record.heading_deg != ais::kHeadingUnavailable) {
    heading_mean_.Add(record.heading_deg);
    heading_bins_.Add(record.heading_deg);
  }
  if (record.next_cell != hex::kInvalidCell) {
    transitions_.Add(record.next_cell);
  }
}

void CellSummary::Merge(CellSummary&& other) {
  record_count_ += other.record_count_;
  ships_.Merge(other.ships_);
  trips_.Merge(other.trips_);
  course_mean_.Merge(other.course_mean_);
  heading_mean_.Merge(other.heading_mean_);
  course_bins_.Merge(other.course_bins_).ok();
  heading_bins_.Merge(other.heading_bins_).ok();
  speed_.Merge(other.speed_);
  speed_q_.Merge(other.speed_q_);
  eto_.Merge(other.eto_);
  eto_q_.Merge(other.eto_q_);
  ata_.Merge(other.ata_);
  ata_q_.Merge(other.ata_q_);
  origins_.Merge(other.origins_);
  destinations_.Merge(other.destinations_);
  transitions_.Merge(other.transitions_);
}

void CellSummary::Serialize(std::string* out) const {
  PutVarint64(out, record_count_);
  ships_.Serialize(out);
  trips_.Serialize(out);
  course_mean_.Serialize(out);
  heading_mean_.Serialize(out);
  course_bins_.Serialize(out);
  heading_bins_.Serialize(out);
  speed_.Serialize(out);
  speed_q_.Serialize(out);
  eto_.Serialize(out);
  eto_q_.Serialize(out);
  ata_.Serialize(out);
  ata_q_.Serialize(out);
  origins_.Serialize(out);
  destinations_.Serialize(out);
  transitions_.Serialize(out);
}

Status CellSummary::Deserialize(std::string_view* input) {
  POL_RETURN_IF_ERROR(GetVarint64(input, &record_count_));
  POL_RETURN_IF_ERROR(ships_.Deserialize(input));
  POL_RETURN_IF_ERROR(trips_.Deserialize(input));
  POL_RETURN_IF_ERROR(course_mean_.Deserialize(input));
  POL_RETURN_IF_ERROR(heading_mean_.Deserialize(input));
  POL_RETURN_IF_ERROR(course_bins_.Deserialize(input));
  POL_RETURN_IF_ERROR(heading_bins_.Deserialize(input));
  POL_RETURN_IF_ERROR(speed_.Deserialize(input));
  POL_RETURN_IF_ERROR(speed_q_.Deserialize(input));
  POL_RETURN_IF_ERROR(eto_.Deserialize(input));
  POL_RETURN_IF_ERROR(eto_q_.Deserialize(input));
  POL_RETURN_IF_ERROR(ata_.Deserialize(input));
  POL_RETURN_IF_ERROR(ata_q_.Deserialize(input));
  POL_RETURN_IF_ERROR(origins_.Deserialize(input));
  POL_RETURN_IF_ERROR(destinations_.Deserialize(input));
  POL_RETURN_IF_ERROR(transitions_.Deserialize(input));
  return Status::OK();
}

size_t CellSummary::MemoryFootprint() const {
  // Approximate: serialized size tracks the dynamic parts closely.
  std::string buffer;
  Serialize(&buffer);
  return sizeof(CellSummary) + buffer.size();
}

}  // namespace pol::core
