-- 27 single-column point queries over distinct columns: `recommend` with a
-- generous budget chooses more than 20 indexes (the old interaction
-- analysis stopped at 20). Run by `make examples` and the CLI smoke test.
SELECT objid FROM photoobj WHERE objid = 7
SELECT ra FROM photoobj WHERE ra = 7
SELECT dec FROM photoobj WHERE dec = 7
SELECT type FROM photoobj WHERE type = 7
SELECT u FROM photoobj WHERE u = 7
SELECT g FROM photoobj WHERE g = 7
SELECT r FROM photoobj WHERE r = 7
SELECT i FROM photoobj WHERE i = 7
SELECT z FROM photoobj WHERE z = 7
SELECT run FROM photoobj WHERE run = 7
SELECT camcol FROM photoobj WHERE camcol = 7
SELECT field FROM photoobj WHERE field = 7
SELECT flags FROM photoobj WHERE flags = 7
SELECT status FROM photoobj WHERE status = 7
SELECT rowc FROM photoobj WHERE rowc = 7
SELECT colc FROM photoobj WHERE colc = 7
SELECT specobjid FROM specobj WHERE specobjid = 7
SELECT bestobjid FROM specobj WHERE bestobjid = 7
SELECT class FROM specobj WHERE class = 7
SELECT zredshift FROM specobj WHERE zredshift = 7
SELECT zerr FROM specobj WHERE zerr = 7
SELECT plate FROM specobj WHERE plate = 7
SELECT mjd FROM specobj WHERE mjd = 7
SELECT fiberid FROM specobj WHERE fiberid = 7
SELECT objid FROM neighbors WHERE objid = 7
SELECT neighborobjid FROM neighbors WHERE neighborobjid = 7
SELECT distance FROM neighbors WHERE distance = 7
