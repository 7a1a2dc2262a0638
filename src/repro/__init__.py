"""CAMEO: autocorrelation-preserving lossy time series compression.

Reproduction of "CAMEO: Autocorrelation-Preserving Line Simplification for
Lossy Time Series Compression" (EDBT 2026).  The top-level package re-exports
the most frequently used entry points; the subpackages contain the full
system:

``repro.core``          CAMEO compressor, blocking, parallel strategies
``repro.codecs``        unified codec protocol + registry for every method
``repro.stats``         ACF/PACF and incremental aggregate maintenance
``repro.metrics``       quality measures (MAE, NRMSE, mSMAPE, ...)
``repro.simplify``      VW / TP / PIP / RDP baselines + ACF adapter
``repro.compressors``   PMC, SWING, Sim-Piece, FFT baselines
``repro.lossless``      Gorilla and Chimp codecs
``repro.forecasting``   ETS, STL, ARIMA-lite, DHR, MLP, Box-Cox
``repro.anomaly``       Matrix Profile, irregular MP, UCR scoring
``repro.features``      tsfeatures-style feature extraction
``repro.data``          synthetic datasets and containers
``repro.io``            serialization of compressed representations
``repro.storage``       compression-aware segment store + query engine
``repro.streaming``     chunked multi-stream compression, online ACF, drift monitor
``repro.engine``        multi-series batch engine (serial/thread)

Quickstart
----------
>>> import numpy as np
>>> from repro import cameo_compress
>>> series = np.sin(np.arange(1000) * 2 * np.pi / 50) + 0.1
>>> compressed = cameo_compress(series, max_lag=50, epsilon=0.02)
>>> reconstruction = compressed.decompress()
>>> compressed.compression_ratio() > 2
True
"""

from .codecs import Codec, CompressedBlock, available_codecs, get_codec, register_codec
from .core import CameoCompressor, CoarseGrainedCameo, FineGrainedCameo, cameo_compress
from .engine import BatchEngine, BatchReport, BatchResult, compress_batch
from .data import IrregularSeries, TimeSeries, dataset_names, load_dataset
from .exceptions import (
    CodecError,
    CompressionError,
    ConstraintViolationError,
    DatasetError,
    DecompressionError,
    InvalidParameterError,
    InvalidSeriesError,
    ModelError,
    ReproError,
)
from .metrics import mae, msmape, nrmse, psnr, rmse
from .simplify import AcfConstrainedSimplifier, make_simplifier
from .stats import Statistic, acf, make_statistic, pacf

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CameoCompressor",
    "cameo_compress",
    "Codec",
    "CompressedBlock",
    "get_codec",
    "register_codec",
    "available_codecs",
    "FineGrainedCameo",
    "CoarseGrainedCameo",
    "BatchEngine",
    "compress_batch",
    "BatchReport",
    "BatchResult",
    "TimeSeries",
    "IrregularSeries",
    "load_dataset",
    "dataset_names",
    "acf",
    "pacf",
    "Statistic",
    "make_statistic",
    "mae",
    "rmse",
    "nrmse",
    "msmape",
    "psnr",
    "AcfConstrainedSimplifier",
    "make_simplifier",
    "ReproError",
    "InvalidSeriesError",
    "InvalidParameterError",
    "CompressionError",
    "ConstraintViolationError",
    "DecompressionError",
    "CodecError",
    "ModelError",
    "DatasetError",
]
