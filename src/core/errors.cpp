#include "core/errors.hpp"

namespace htd::core {

std::string pipeline_error_code_name(PipelineErrorCode code) {
    switch (code) {
        case PipelineErrorCode::kConfig: return "config";
        case PipelineErrorCode::kStageOrder: return "stage_order";
        case PipelineErrorCode::kDimensionMismatch: return "dimension_mismatch";
        case PipelineErrorCode::kDataQuality: return "data_quality";
        case PipelineErrorCode::kBoundaryUnavailable: return "boundary_unavailable";
        case PipelineErrorCode::kArtifact: return "artifact";
    }
    return "unknown";
}

std::string PipelineError::format_message(PipelineErrorCode code,
                                          const std::string& message) {
    const std::string name = pipeline_error_code_name(code);
    std::string out;
    out.reserve(name.size() + message.size() + 3);
    out += '[';
    out += name;
    out += "] ";
    out += message;
    return out;
}

}  // namespace htd::core
