"""Columnar storage substrate: columns, tables, catalog, serde, CSV I/O."""

from .column import Column
from .table import Table, Schema
from .catalog import Catalog, Delta
from . import serde, csvio

__all__ = ["Column", "Table", "Schema", "Catalog", "Delta", "serde", "csvio"]
